package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// env describes the host and build a result was measured on.
func env() map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// report prints the human-readable summary and, last, the one-line JSON
// result. A traced run also writes its spans as Chrome trace-event JSON.
func report(w io.Writer, cfg config, r *result) error {
	e := env()
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", r.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "env nproc=%s gomaxprocs=%s go=%s commit=%s os_arch=%s\n", e["nproc"], e["gomaxprocs"], e["go"], e["commit"], e["os_arch"])
	fmt.Fprintf(w, "ops attempted=%d failed=%d list=%d rounds=%d untraced_samples=%d traced_samples=%d pinned_ops=%d round_digest=%#x\n",
		r.attempted, r.failed, len(r.untraced.ms), r.rounds, r.untraced.ops, r.traced.ops, r.pinned, uint64(r.roundDigest))
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}

	// The gated end-to-end metrics, then the ones taken from the same
	// untraced ops that the JSON line carries only in a traced run.
	e2e := endToEndMetrics(r)
	fmt.Fprintln(w, "end-to-end (untraced ops):")
	printMetrics(w, e2e)
	printMetrics(w, workloadMetrics(r))

	out := e2e
	if cfg.trace {
		layer := perLayerMetrics(r)
		fmt.Fprintf(w, "per-layer self time (%d traced ops):\n", r.traced.ops)
		writeLayerTable(w, layerTimes(r.spans), r.traced.ops)
		fmt.Fprintf(w, "tracing overhead: %.2f traced vs %.2f untraced ops/s (%+.1f%%)\n",
			layer["trace.traced_ops_per_s"].Value, layer["trace.untraced_ops_per_s"].Value,
			100*layer["trace.overhead_frac"].Value)
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, cfg.seed))
		meta := e
		meta["workload"] = r.workload
		meta["seed"] = fmt.Sprint(cfg.seed)
		if err := writeChromeTrace(path, r.spans, r.opKeys, meta); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintln(w, "chrome trace:", path)
		fmt.Fprintln(w, "per-layer metrics:")
		printMetrics(w, layer)
		out = layer
	}

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printPins runs every op of the workload once on DefaultSeed, without
// checking pins, and prints the digests as pins.go map entries.
func printPins(stdout, stderr io.Writer, wl workload) int {
	res := &result{workload: wl.name, opKeys: map[int]string{}}
	b := newBench(wl, res)
	b.expect = map[string]uint64{}
	fmt.Fprintf(stdout, "\t%q: {\n", wl.name)
	for _, o := range wl.build(DefaultSeed) {
		_, _, d := b.exec(o, false)
		fmt.Fprintf(stdout, "\t\t%q: %#x,\n", o.key, uint64(d))
	}
	fmt.Fprintln(stdout, "\t},")
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}
