#!/usr/bin/env bash
# require-tests.sh PATTERN PKG...
#
# Fails when `go test -run PATTERN PKG...` would silently run nothing:
# every package must list at least one top-level test matching PATTERN,
# and every |-separated alternative of PATTERN must match a test in one
# of the packages. Run it before a -run step so that renaming or
# deleting tests cannot turn the step into a no-op.
set -euo pipefail

pattern=$1
shift
go=${GO:-go}

all=""
for pkg in "$@"; do
	names=$("$go" test -list "$pattern" "$pkg" | grep -E '^(Test|Example|Fuzz)' || true)
	if [ -z "$names" ]; then
		echo "require-tests: -run '$pattern' matches no test in $pkg" >&2
		exit 1
	fi
	all+="$names"$'\n'
done

IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
	if ! grep -qE -- "$alt" <<< "$all"; then
		echo "require-tests: '$alt' (from -run '$pattern') matches no test in $*" >&2
		exit 1
	fi
done
