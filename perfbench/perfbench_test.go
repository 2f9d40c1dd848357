package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// refPercentile is the nearest-rank definition taken literally: the
// smallest sample with at least q% of all samples at or below it.
func refPercentile(xs []float64, q float64) float64 {
	for _, v := range sorted(xs) {
		n := 0
		for _, x := range xs {
			if x <= v {
				n++
			}
		}
		if float64(n) >= q/100*float64(len(xs)) {
			return v
		}
	}
	return xs[len(xs)-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = float64(rng.Intn(20)) // ties on purpose
		}
		for _, q := range []float64{1, 10, 25, 50, 90, 95, 99, 100} {
			if got, want := percentile(xs, q), refPercentile(xs, q); got != want {
				t.Fatalf("percentile(%v, %v) = %v, want %v", xs, q, got, want)
			}
		}
	}
	if got := percentile([]float64{3, 1, 2, 4}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2 (nearest rank, not interpolated)", got)
	}
	if got := percentile([]float64{5}, 90); got != 5 {
		t.Errorf("p90 of one sample = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a
		{name: "a1", parent: 1, start: 15, end: 20}, // nested in a: not op's child
		{name: "c", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "d", parent: 0, start: 45, end: 50},  // inside the a∪b union
	}
	// op: 100 - |[10,60] ∪ [90,100]| = 40; a: 30 - 5 = 25.
	want := []int64{40, 25, 30, 5, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	lts := layerTimes(append(spans, span{name: "a", parent: -1, start: 200, end: 210}))
	for _, lt := range lts {
		if lt.name == "a" && (lt.calls != 2 || lt.self != 35) {
			t.Errorf("layer a = %d calls, %d self; want 2 calls, 35 self", lt.calls, lt.self)
		}
	}
}

// TestPerturbedStatisticFails runs an op, then an op with the same key
// whose checksum-store hash seed differs: its output still verifies,
// but its collision counts and cycles move, so the digest must fail it.
func TestPerturbedStatisticFails(t *testing.T) {
	res := &result{opKeys: map[int]string{}}
	b := newBench(workload{name: "paper-suite"}, res)
	const key = "histo/lp-quad-lock"
	good := *paperDesigns[2].cfg
	b.exec(op{key: key, run: func(c *opCtx) error { return runPaper(c, "histo", &good) }}, false)
	if res.failed != 0 {
		t.Fatalf("unperturbed op failed: %v", res.failures)
	}
	bad := good
	bad.Seed++
	b.exec(op{key: key, run: func(c *opCtx) error { return runPaper(c, "histo", &bad) }}, false)
	if res.failed != 1 || !strings.Contains(res.failures[0], "digest") {
		t.Fatalf("perturbed op: failed=%d failures=%v, want one digest failure", res.failed, res.failures)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// specNames are the metric names the benchmark's specification lists,
// by the workloads they apply to (nil: all workloads).
var specNames = map[string][]string{
	"setup_s": nil, "ops_per_s": nil, "allocs_per_op": nil, "alloc_mb_per_op": nil, "fail_frac": nil,
	"sim_minstr_per_s":  {"paper-suite", "crash-recover"},
	"served_kreq_per_s": {"kv-serve"},
	"op_ms_p50":         {"crash-recover", "kv-serve"},
	"op_ms_p90":         {"crash-recover", "kv-serve"},
	"kernels.setup_ms":  {"paper-suite", "crash-recover"}, "kernels.verify_ms": {"paper-suite", "crash-recover"},
	"gpusim.launch_ms": {"paper-suite", "crash-recover"}, "gpusim.ns_per_warp_instr": {"paper-suite", "crash-recover"},
	"gpusim.ns_per_block": {"paper-suite", "crash-recover"}, "gpusim.ns_per_access": {"paper-suite", "crash-recover"},
	"memsim.crash_ms": {"crash-recover"}, "memsim.snapshot_ms": {"crash-recover"}, "memsim.flush_ms": {"crash-recover"},
	"core.new_ms": {"paper-suite"}, "core.validate_ms": {"paper-suite"},
	"pmodel.bind_ms": {"crash-recover"}, "pmodel.predict_ms": {"crash-recover"}, "pmodel.recover_ms": {"crash-recover"},
	"serve.run_ms": {"kv-serve"}, "serve.cluster_run_ms": {"kv-serve"}, "serve.ledger_ms": {"kv-serve"},
	"serve.us_per_launch": {"kv-serve"}, "runtime.gc_cpu_frac": nil,
	"gpusim.launches": {"paper-suite", "crash-recover"}, "gpusim.blocks": {"paper-suite", "crash-recover"},
	"gpusim.warp_instrs": {"paper-suite", "crash-recover"}, "gpusim.atomic_stall_cycles": {"paper-suite", "crash-recover"},
	"gpusim.lock_stall_cycles": {"paper-suite", "crash-recover"},
	"memsim.accesses":          {"paper-suite", "crash-recover"}, "memsim.hit_rate": {"paper-suite", "crash-recover"},
	"memsim.nvm_line_reads": {"paper-suite", "crash-recover"}, "memsim.nvm_line_writes": {"paper-suite", "crash-recover"},
	"memsim.flushed_lines": {"paper-suite", "crash-recover"},
	"hashtab.collisions":   {"paper-suite"}, "hashtab.race_redos": {"paper-suite"},
	"core.failed_regions": {"paper-suite"},
	"pmodel.damaged_frac": {"crash-recover"}, "pmodel.recover_sim_cycles": {"crash-recover"}, "pmodel.replayed": {"crash-recover"},
	"serve.launches": {"kv-serve"}, "serve.batch_fill": {"kv-serve"}, "serve.drop_frac": {"kv-serve"},
	"cluster.adopted_batches": {"kv-serve"},
	"trace.overhead_frac":     nil,
}

type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkSpecMatches checks BENCHMARK.json against the metrics and
// workloads the program emits, and every name against the name rule.
func TestBenchmarkSpecMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var specWL []string
	for _, w := range spec.Workloads {
		specWL = append(specWL, w.Name)
	}
	if got, want := strings.Join(specWL, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for i, m := range endToEnd {
		if i >= len(spec.EndToEnd) || spec.EndToEnd[i].Name != m.name || spec.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d]: program has %s (%s)", i, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if i >= len(spec.PerLayer) || spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d]: program has %s (%s)", i, m.name, m.unit)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, n := range append(workloadNames(), metricNames()...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
	}
}

func metricNames() []string {
	var out []string
	for _, m := range endToEnd {
		out = append(out, m.name)
	}
	for _, m := range perLayer {
		out = append(out, m.name)
	}
	return out
}

// lastJSON parses the final output line, which must have exactly the
// result keys.
func lastJSON(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(raw) != 4 {
		t.Fatalf("result keys %v, want correct/attempted/failed/metrics", raw)
	}
	for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(raw[k], dst); err != nil {
			t.Fatalf("result key %s: %v", k, err)
		}
	}
	return
}

// TestSmoke runs each workload cut to its warm-up op, untraced and
// traced, through the whole reporting path.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			one := workload{name: wl.name, build: func(seed uint64) []op { return wl.build(seed)[:1] }}
			if _, ok := pinned[wl.name][wl.build(DefaultSeed)[0].key]; !ok {
				t.Errorf("warm-up op of %s has no pinned digest", wl.name)
			}
			emitted := map[string]float64{}
			for _, traced := range []bool{false, true} {
				cfg := config{workload: one, seed: DefaultSeed, trace: traced, traceDir: t.TempDir()}
				res := measure(cfg)
				var buf bytes.Buffer
				if err := report(&buf, cfg, res); err != nil {
					t.Fatal(err)
				}
				correct, attempted, failed, ms := lastJSON(t, buf.String())
				if !correct || failed != 0 || attempted < setupRuns+1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", correct, attempted, failed, buf.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(ms) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(ms), len(want))
				}
				for _, m := range want {
					got, ok := ms[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, got, m.unit)
					}
					emitted[m.name] = got.Value
				}
				if traced {
					checkChromeTrace(t, filepath.Join(cfg.traceDir, "trace-"+wl.name+"-seed1.json"), wl.name)
				}
			}
			for name, applies := range specNames {
				if applies != nil && !contains(applies, wl.name) {
					continue
				}
				v, ok := emitted[name]
				if !ok {
					t.Errorf("%s: %s not emitted", wl.name, name)
				} else if v == 0 && name != "fail_frac" && !zeroAllowed[name] {
					t.Errorf("%s: %s is 0 on a workload it applies to", wl.name, name)
				}
			}
		})
	}
}

// zeroAllowed are listed metrics that are legitimately 0 on a warm-up
// op: no contention or collisions at that op's design point, no fault
// to recover from, or (kv-serve) a single-device run.
var zeroAllowed = map[string]bool{
	"gpusim.atomic_stall_cycles": true, "gpusim.lock_stall_cycles": true,
	"hashtab.collisions": true, "hashtab.race_redos": true, "core.failed_regions": true,
	"core.new_ms": true, "core.validate_ms": true, "memsim.flushed_lines": true,
	"pmodel.damaged_frac": true, "pmodel.replayed": true, "runtime.gc_cpu_frac": true,
	"trace.overhead_frac": true, "cluster.adopted_batches": true, "memsim.crash_ms": true,
	"serve.cluster_run_ms": true,
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func checkChromeTrace(t *testing.T, path, wl string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent      `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	roots := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Errorf("bad event %+v", e)
		}
		if e.Name == "op."+wl {
			roots++
			if _, ok := e.Args["key"]; !ok {
				t.Errorf("op span without key: %+v", e)
			}
		}
	}
	if roots == 0 || len(doc.TraceEvents) <= roots {
		t.Errorf("trace has %d op spans among %d events", roots, len(doc.TraceEvents))
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go", "commit"} {
		if doc.OtherData[k] == "" {
			t.Errorf("trace metadata lacks %s", k)
		}
	}
}

func TestSeededOpLists(t *testing.T) {
	for _, wl := range workloads {
		a, b := wl.build(DefaultSeed), wl.build(DefaultSeed)
		h := wl.build(HeldOutSeed)
		same, moved := true, false
		for i := range a {
			same = same && a[i].key == b[i].key
			moved = moved || a[i].key != h[i].key
		}
		if !same {
			t.Errorf("%s: op list is not a pure function of the seed", wl.name)
		}
		if wl.name != "paper-suite" && !moved {
			t.Errorf("%s: held-out seed draws the same ops as the default seed", wl.name)
		}
		seen := map[string]bool{}
		for _, o := range a {
			if seen[o.key] {
				t.Errorf("%s: duplicate op key %s", wl.name, o.key)
			}
			seen[o.key] = true
		}
		x, y := shuffled(a, DefaultSeed), shuffled(a, HeldOutSeed)
		if x[0].key == y[0].key && x[len(x)-1].key == y[len(y)-1].key && len(x) > 4 {
			t.Errorf("%s: order does not depend on the seed", wl.name)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{},
		{"--workload", "kv-serve", "--trace", "2"},
		{"--workload", "kv-serve", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}
