package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// DefaultSeed is the seed the digests in pins.go were recorded on;
// HeldOutSeed is never used while tuning, so a gain claimed on
// DefaultSeed can be re-checked on it.
const (
	DefaultSeed = 1
	HeldOutSeed = 20201019
)

// setupRuns is how many times a run repeats its set-up (op list plus
// warm-up op); setup_s is their median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-suite, crash-recover or kv-serve")
	seed := fs.Uint64("seed", DefaultSeed, "workload seed: fixes op order, crash points, crash profiles and serving seeds")
	seconds := fs.Float64("seconds", 40, "measure for this many host seconds, and at least one round of the op list")
	trace := fs.Int("trace", 0, "1: alternate traced and untraced rounds and report per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its Chrome trace-event JSON")
	pins := fs.Bool("pins", false, "run one round and print each op's digest as pins.go entries, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if *pins {
		return printPins(stdout, stderr, wl)
	}
	// The simulator runs on this one goroutine. With one P the garbage
	// collector shares its CPU, so an op's host time is the program's
	// own work; with more, it also depends on how much of a second,
	// possibly contended, CPU the collector got (on a 2-vCPU VM that
	// swung kv-serve's ops_per_s by up to 40% between runs).
	runtime.GOMAXPROCS(1)
	cfg := config{workload: wl, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	res := measure(cfg)
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// phase accumulates the ops run with tracing either on or off, per op
// of the list.
type phase struct {
	ops     int
	ms      [][]float64 // each op's time, in ms, on each of its runs
	allocs  [][]float64 // heap objects it allocated on each run
	mb      [][]float64 // heap MB it allocated on each run
	sim     []simStats  // its simulated statistics (the same on every run)
	gcCPU   float64     // GC CPU seconds over the phase's ops
	busyCPU float64     // non-idle CPU seconds over the phase's ops
}

func newPhase(n int) phase {
	return phase{ms: make([][]float64, n), allocs: make([][]float64, n), mb: make([][]float64, n), sim: make([]simStats, n)}
}

// medians returns each op's median over its runs. Host noise comes in
// bursts, so a per-op median rejects a burst that a mean would spread
// over every figure of the run.
func medians(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = median(x)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// roundSeconds is the time one pass over the list takes at each op's
// median time.
func (ph *phase) roundSeconds() float64 { return sum(medians(ph.ms)) / 1e3 }

// round sums the simulated statistics of one pass over the list.
func (ph *phase) round() simStats {
	var s simStats
	for _, x := range ph.sim {
		s.add(x)
	}
	return s
}

type result struct {
	workload          string
	attempted, failed int
	failures          []string
	rounds            int // whole passes over the list
	setup             []float64
	untraced, traced  phase
	roundDigest       digest
	pinned            int // ops whose digest was checked against pins.go
	spans             []span
	opKeys            map[int]string
}

// bench runs ops from a single goroutine and checks each op's digest
// against the pinned value for its key, or else against the first run
// of the same key in this process.
type bench struct {
	wl     workload
	opSpan string
	tr     *tracer
	expect map[string]uint64
	nextID int
	res    *result
}

func newBench(wl workload, res *result) *bench {
	b := &bench{wl: wl, opSpan: "op." + wl.name, tr: newTracer(), expect: map[string]uint64{}, res: res}
	for k, v := range pinned[wl.name] {
		b.expect[k] = v
	}
	return b
}

// exec runs one op, traced or not, and records its outcome.
func (b *bench) exec(o op, traced bool) (time.Duration, simStats, digest) {
	b.tr.on = traced
	b.tr.op = b.nextID
	if traced {
		b.res.opKeys[b.nextID] = o.key
	}
	b.nextID++
	c := opCtx{tr: b.tr, d: newDigest()}
	sp := b.tr.begin(b.opSpan)
	start := time.Now()
	err := b.runSafely(o, &c)
	dur := time.Since(start)
	b.tr.end(sp)
	b.tr.on = false

	if err == nil {
		got := uint64(c.d)
		if want, ok := b.expect[o.key]; !ok {
			b.expect[o.key] = got
		} else if got != want {
			err = fmt.Errorf("digest %#x, want %#x", got, want)
		}
	}
	b.res.attempted++
	if err != nil {
		b.res.failed++
		b.res.failures = append(b.res.failures, o.key+": "+err.Error())
	}
	return dur, c.sim, c.d
}

// runSafely converts a panic inside an op into its failure, closing any
// spans the panic left open.
func (b *bench) runSafely(o op, c *opCtx) (err error) {
	depth := len(b.tr.stack)
	defer func() {
		if r := recover(); r != nil {
			for len(b.tr.stack) > depth {
				b.tr.end(b.tr.stack[len(b.tr.stack)-1])
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return o.run(c)
}

// shuffled returns ops in a seeded order.
func shuffled(ops []op, seed uint64) []op {
	out := append([]op(nil), ops...)
	rng := rand.New(rand.NewSource(int64(splitmix(seed))))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCPU() (gc, busy float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64()
}

// measure sets up setupRuns times, then runs the seed-shuffled list
// round after round until cfg.seconds have passed, always finishing at
// least one round. A traced run alternates traced and untraced rounds
// and stops only at a round boundary after both kinds have run.
func measure(cfg config) *result {
	res := &result{workload: cfg.workload.name, opKeys: map[int]string{}}
	b := newBench(cfg.workload, res)
	var ops, list []op
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		ops = cfg.workload.build(cfg.seed)
		b.exec(ops[0], false)
		res.setup = append(res.setup, time.Since(t0).Seconds())
		list = shuffled(ops, cfg.seed)
	}

	n := len(list)
	res.untraced, res.traced = newPhase(n), newPhase(n)
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.trace && (i/n)%2 == 0
		ph := &res.untraced
		if traced {
			ph = &res.traced
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, busy0 := readCPU()
		dur, sim, _ := b.exec(list[i%n], traced)
		gc1, busy1 := readCPU()
		runtime.ReadMemStats(&m1)
		j := i % n
		ph.ops++
		ph.ms[j] = append(ph.ms[j], float64(dur)/1e6)
		ph.allocs[j] = append(ph.allocs[j], float64(m1.Mallocs-m0.Mallocs))
		ph.mb[j] = append(ph.mb[j], float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		ph.sim[j] = sim
		ph.gcCPU += gc1 - gc0
		ph.busyCPU += busy1 - busy0

		roundEnd := (i+1)%n == 0
		if roundEnd {
			res.rounds++
		}
		done := time.Since(start).Seconds() >= cfg.seconds && i+1 >= n
		if cfg.trace {
			done = done && roundEnd && res.rounds >= 2
		}
		if done {
			break
		}
	}

	rd := newDigest()
	for _, o := range ops {
		rd.ints(int64(b.expect[o.key]))
		if _, ok := pinned[cfg.workload.name][o.key]; ok {
			res.pinned++
		}
	}
	res.roundDigest = rd
	res.spans = b.tr.spans
	return res
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics of an untraced run, in the order BENCHMARK.json
// lists them. All are host-time or host-memory figures.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
}

func endToEndMetrics(r *result) map[string]metric {
	u := &r.untraced
	meds := medians(u.ms)
	n := float64(len(meds))
	v := map[string]float64{
		"setup_s":         median(r.setup),
		"ops_per_s":       n / u.roundSeconds(),
		"op_ms_p50":       percentile(meds, 50),
		"op_ms_p90":       percentile(meds, 90),
		"allocs_per_op":   sum(medians(u.allocs)) / n,
		"alloc_mb_per_op": sum(medians(u.mb)) / n,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// Host times come from traced rounds (mean self time per op, in ms);
// the workload throughputs (at median op times, like ops_per_s), GC
// share and fail_frac from its untraced rounds; the simulated counts
// from traced rounds (per op, or a ratio).
// A layer a workload never calls reports 0.
var perLayer = []struct{ name, unit string }{
	{"kernels.setup_ms", "ms"},
	{"kernels.verify_ms", "ms"},
	{"gpusim.launch_ms", "ms"},
	{"gpusim.ns_per_warp_instr", "ns"},
	{"gpusim.ns_per_block", "ns"},
	{"gpusim.ns_per_access", "ns"},
	{"memsim.crash_ms", "ms"},
	{"memsim.snapshot_ms", "ms"},
	{"memsim.flush_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"pmodel.bind_ms", "ms"},
	{"pmodel.predict_ms", "ms"},
	{"pmodel.recover_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.cluster_run_ms", "ms"},
	{"serve.ledger_ms", "ms"},
	{"serve.us_per_launch", "us"},
	{"op.self_ms", "ms"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"served_kreq_per_s", "kreq/s"},
	{"fail_frac", "fraction"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_frac", "fraction"},
	{"gpusim.launches", "count"},
	{"gpusim.blocks", "count"},
	{"gpusim.warp_instrs", "count"},
	{"gpusim.atomic_stall_cycles", "cycles"},
	{"gpusim.lock_stall_cycles", "cycles"},
	{"memsim.accesses", "count"},
	{"memsim.hit_rate", "fraction"},
	{"memsim.nvm_line_reads", "count"},
	{"memsim.nvm_line_writes", "count"},
	{"memsim.flushed_lines", "count"},
	{"hashtab.collisions", "count"},
	{"hashtab.race_redos", "count"},
	{"core.failed_regions", "count"},
	{"pmodel.damaged_frac", "fraction"},
	{"pmodel.recover_sim_cycles", "cycles"},
	{"pmodel.replayed", "count"},
	{"serve.launches", "count"},
	{"serve.batch_fill", "fraction"},
	{"serve.drop_frac", "fraction"},
	{"cluster.adopted_batches", "count"},
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workloadMetrics are the per-layer metrics taken from untraced rounds.
func workloadMetrics(r *result) map[string]metric {
	u := &r.untraced
	sim, secs := u.round(), u.roundSeconds()
	return map[string]metric{
		"sim_minstr_per_s":    {float64(sim.warpInstrs) / 1e6 / secs, "Minstr/s"},
		"served_kreq_per_s":   {float64(sim.served) / 1e3 / secs, "kreq/s"},
		"fail_frac":           {float64(r.failed) / float64(r.attempted), "fraction"},
		"runtime.gc_cpu_frac": {ratio(u.gcCPU, u.busyCPU), "fraction"},
	}
}

func perLayerMetrics(r *result) map[string]metric {
	self := map[string]float64{} // ns
	for _, lt := range layerTimes(r.spans) {
		self[lt.name] = float64(lt.self)
	}
	t, u := &r.traced, &r.untraced
	ops := float64(t.ops)
	msPerOp := func(names ...string) float64 {
		var ns float64
		for _, n := range names {
			ns += self[n]
		}
		return ns / 1e6 / ops
	}
	// Counts are per op of the list, from its traced runs; traced runs
	// are whole rounds, so launch time per round pairs with s.
	s := t.round()
	n := float64(len(t.sim))
	launchNS := self["gpusim.Launch"] / (ops / n)
	untracedRate := float64(len(u.ms)) / u.roundSeconds()
	tracedRate := float64(len(t.ms)) / t.roundSeconds()
	v := map[string]float64{
		"kernels.setup_ms":           msPerOp("kernels.New", "kernels.Setup"),
		"kernels.verify_ms":          msPerOp("kernels.Verify"),
		"gpusim.launch_ms":           msPerOp("gpusim.Launch"),
		"gpusim.ns_per_warp_instr":   ratio(launchNS, float64(s.warpInstrs)),
		"gpusim.ns_per_block":        ratio(launchNS, float64(s.blocks)),
		"gpusim.ns_per_access":       ratio(launchNS, float64(s.accesses)),
		"memsim.crash_ms":            msPerOp("memsim.Crash", "memsim.PartialCrash"),
		"memsim.snapshot_ms":         msPerOp("memsim.SnapshotNVM"),
		"memsim.flush_ms":            msPerOp("memsim.FlushAll"),
		"core.new_ms":                msPerOp("core.New"),
		"core.validate_ms":           msPerOp("core.Validate"),
		"pmodel.bind_ms":             msPerOp("pmodel.New"),
		"pmodel.predict_ms":          msPerOp("pmodel.PredictDamage"),
		"pmodel.recover_ms":          msPerOp("pmodel.Recover"),
		"serve.run_ms":               msPerOp("serve.Run"),
		"serve.cluster_run_ms":       msPerOp("serve.RunCluster"),
		"serve.ledger_ms":            msPerOp("serve.VerifyLedger"),
		"serve.us_per_launch":        ratio((self["serve.Run"]+self["serve.RunCluster"])/1e3/(ops/n), float64(s.serveLaunches)),
		"op.self_ms":                 msPerOp("op." + r.workload),
		"trace.untraced_ops_per_s":   untracedRate,
		"trace.traced_ops_per_s":     tracedRate,
		"trace.overhead_frac":        untracedRate/tracedRate - 1,
		"gpusim.launches":            float64(s.launches) / n,
		"gpusim.blocks":              float64(s.blocks) / n,
		"gpusim.warp_instrs":         float64(s.warpInstrs) / n,
		"gpusim.atomic_stall_cycles": float64(s.atomicStall) / n,
		"gpusim.lock_stall_cycles":   float64(s.lockStall) / n,
		"memsim.accesses":            float64(s.accesses) / n,
		"memsim.hit_rate":            ratio(float64(s.hits), float64(s.hits+s.misses)),
		"memsim.nvm_line_reads":      float64(s.nvmReads) / n,
		"memsim.nvm_line_writes":     float64(s.nvmWrites) / n,
		"memsim.flushed_lines":       float64(s.flushed) / n,
		"hashtab.collisions":         float64(s.collisions) / n,
		"hashtab.race_redos":         float64(s.raceRedos) / n,
		"core.failed_regions":        float64(s.failedRegions) / n,
		"pmodel.damaged_frac":        ratio(float64(s.damaged), float64(s.damageUnits)),
		"pmodel.recover_sim_cycles":  ratio(float64(s.recoverCyc), float64(s.recoverOps)),
		"pmodel.replayed":            ratio(float64(s.replayed), float64(s.recoverOps)),
		"serve.launches":             ratio(float64(s.serveLaunches), float64(s.serveRuns+s.clusterRuns)),
		"serve.batch_fill":           ratio(float64(s.served), float64(s.batchSlots)),
		"serve.drop_frac":            ratio(float64(s.dropped), float64(s.offered)),
		"cluster.adopted_batches":    ratio(float64(s.adopted), float64(s.clusterRuns)),
	}
	for name, m := range workloadMetrics(r) {
		v[name] = m.Value
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
