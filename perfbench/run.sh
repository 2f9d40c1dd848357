#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The Go build cache, temporary files and the binary all stay under
# .bench_build, so nothing outside the checkout is written.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
