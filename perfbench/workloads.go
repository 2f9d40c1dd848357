package main

import (
	"fmt"
	"math/rand"
	"slices"

	"gpulp/internal/core"
	"gpulp/internal/faultsim"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/pmodel"
	"gpulp/internal/serve"
)

// op is one unit of measured work. It builds a fresh simulated system,
// so modelled caches start empty, drives it through public calls of the
// layers under test and checks every output. key names the op and every
// parameter drawn from the seed; pinned digests are looked up by it.
type op struct {
	key string
	run func(c *opCtx) error
}

// workload is a seeded op list. build must be a pure function of the
// seed and return the ops in a fixed canonical order: ops[0] is the
// warm-up op, and the runner shuffles the rest by seed.
type workload struct {
	name  string
	build func(seed uint64) []op
}

var workloads = []workload{
	{"paper-suite", buildPaperSuite},
	{"crash-recover", buildCrashRecover},
	{"kv-serve", buildKVServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// splitmix is SplitMix64: every seed-derived parameter comes from it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simStats are one op's simulated statistics. Each is deterministic
// given the op's key, so a host-only change must leave all unchanged.
type simStats struct {
	launches, blocks, warpInstrs       int64 // the benchmark's own Device.Launch calls
	atomicStall, lockStall             int64
	accesses, hits, misses             int64 // memsim, during those launches (traced ops only)
	nvmReads, nvmWrites, flushed       int64 // memsim, whole op
	collisions, raceRedos              int64 // hashtab, LP ops
	failedRegions                      int64 // core.Validate on the clean image
	damaged, damageUnits, recoverCyc   int64 // pmodel, crash ops
	replayed                           int64
	serveLaunches, batchSlots, served  int64 // serve, both loops
	offered, dropped, adopted          int64
	serveRuns, clusterRuns, recoverOps int64
}

func (s *simStats) add(o simStats) {
	s.launches += o.launches
	s.blocks += o.blocks
	s.warpInstrs += o.warpInstrs
	s.atomicStall += o.atomicStall
	s.lockStall += o.lockStall
	s.accesses += o.accesses
	s.hits += o.hits
	s.misses += o.misses
	s.nvmReads += o.nvmReads
	s.nvmWrites += o.nvmWrites
	s.flushed += o.flushed
	s.collisions += o.collisions
	s.raceRedos += o.raceRedos
	s.failedRegions += o.failedRegions
	s.damaged += o.damaged
	s.damageUnits += o.damageUnits
	s.recoverCyc += o.recoverCyc
	s.replayed += o.replayed
	s.serveLaunches += o.serveLaunches
	s.batchSlots += o.batchSlots
	s.served += o.served
	s.offered += o.offered
	s.dropped += o.dropped
	s.adopted += o.adopted
	s.serveRuns += o.serveRuns
	s.clusterRuns += o.clusterRuns
	s.recoverOps += o.recoverOps
}

// opCtx carries one op's tracer, statistics and digest through the
// layer calls.
type opCtx struct {
	tr  *tracer
	sim simStats
	d   digest
}

func (c *opCtx) system(memCfg memsim.Config) (*memsim.Memory, *gpusim.Device) {
	sp := c.tr.begin("memsim.New")
	mem := memsim.MustNew(memCfg)
	c.tr.end(sp)
	devCfg := gpusim.DefaultConfig()
	devCfg.Workers = 1
	sp = c.tr.begin("gpusim.New")
	dev := gpusim.MustNew(devCfg, mem)
	c.tr.end(sp)
	return mem, dev
}

func (c *opCtx) setup(dev *gpusim.Device, name string) kernels.Workload {
	sp := c.tr.begin("kernels.New")
	w := kernels.New(name, 1)
	c.tr.end(sp)
	sp = c.tr.begin("kernels.Setup")
	w.Setup(dev)
	c.tr.end(sp)
	return w
}

func (c *opCtx) launch(dev *gpusim.Device, name string, grid, blk gpusim.Dim3, k gpusim.KernelFunc) gpusim.LaunchResult {
	var before memsim.Stats
	if c.tr.on {
		before = dev.Mem().Stats()
	}
	sp := c.tr.begin("gpusim.Launch")
	res := dev.Launch(name, grid, blk, k)
	c.tr.end(sp)
	if c.tr.on {
		after := dev.Mem().Stats()
		for i := range after.Loads {
			c.sim.accesses += after.Loads[i] - before.Loads[i] + after.Stores[i] - before.Stores[i]
		}
		c.sim.hits += after.Hits - before.Hits
		c.sim.misses += after.Misses - before.Misses
	}
	c.sim.launches++
	c.sim.blocks += int64(res.Blocks)
	c.sim.warpInstrs += res.WarpInstrs
	c.sim.atomicStall += res.AtomicStallCycles
	c.sim.lockStall += res.LockStallCycles
	c.launchDigest(res)
	return res
}

func (c *opCtx) launchDigest(res gpusim.LaunchResult) {
	c.d.str(res.Name)
	c.d.ints(res.Cycles, int64(res.Blocks), res.WarpInstrs, res.L2Bytes, res.NVMBytes,
		res.AtomicStallCycles, res.LockStallCycles)
}

// finalize runs the workload's post-processing kernel, if it has one.
func (c *opCtx) finalize(dev *gpusim.Device, w kernels.Workload) {
	if f, ok := w.(kernels.Finalizer); ok {
		name, fg, fb, k := f.FinalizeKernel()
		c.launch(dev, name, fg, fb, k)
	}
}

func (c *opCtx) verify(w kernels.Workload) error {
	sp := c.tr.begin("kernels.Verify")
	err := w.Verify()
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

func (c *opCtx) hashtabStats(st *hashtab.Stats) {
	c.sim.collisions += st.Collisions
	c.sim.raceRedos += st.RaceRedos
	c.d.ints(st.Inserts, st.Lookups, st.Collisions, st.Probes, st.MaxProbe, st.Rehashes, st.RaceRedos, st.Overflows)
}

// drain flushes every dirty line, then folds the memory's traffic
// counters and the durable bytes of the outputs into the digest.
func (c *opCtx) drain(mem *memsim.Memory, outputs []memsim.Region) {
	sp := c.tr.begin("memsim.FlushAll")
	mem.FlushAll()
	c.tr.end(sp)
	st := mem.Stats()
	c.sim.nvmReads += st.NVMLineReads
	c.sim.nvmWrites += st.NVMLineWrites
	c.sim.flushed += st.FlushedLines
	c.d.ints(st.Loads[:]...)
	c.d.ints(st.Stores[:]...)
	c.d.ints(st.Hits, st.Misses, st.NVMLineReads, st.NVMLineWrites, st.FlushedLines)
	for _, r := range outputs {
		c.d.bytes(mem.PeekNVM(r.Base, r.Size))
	}
}

// paperDesigns are the paper-suite configurations: no persistency, the
// paper's final design (Table V) and its worst case (Table III).
var paperDesigns = []struct {
	name string
	cfg  *core.Config
}{
	{"bare", nil},
	{"lp-global", lpConfig(hashtab.GlobalArray, hashtab.LockFree)},
	{"lp-quad-lock", lpConfig(hashtab.Quad, hashtab.LockBased)},
}

// lpConfig returns the paper's design point with the given checksum
// store, seeded like the experiment harness so results match lpbench.
func lpConfig(store hashtab.Kind, lock hashtab.LockMode) *core.Config {
	cfg := core.DefaultConfig()
	cfg.Store = store
	cfg.LockMode = lock
	cfg.Seed = 0x1157c
	return &cfg
}

// buildPaperSuite lists every Table I kernel under every design. Nothing
// in an op depends on the seed; the seed only orders the ops.
func buildPaperSuite(uint64) []op {
	var ops []op
	for _, name := range kernels.Names {
		for _, d := range paperDesigns {
			ops = append(ops, op{
				key: name + "/" + d.name,
				run: func(c *opCtx) error { return runPaper(c, name, d.cfg) },
			})
		}
	}
	return ops
}

func runPaper(c *opCtx, name string, lpCfg *core.Config) error {
	mem, dev := c.system(memsim.DefaultConfig())
	w := c.setup(dev, name)
	grid, blk := w.Geometry()
	var lp *core.LP
	if lpCfg != nil {
		sp := c.tr.begin("core.New")
		lp = core.New(dev, *lpCfg, grid, blk)
		c.tr.end(sp)
	}
	c.launch(dev, name, grid, blk, w.Kernel(lp))
	c.finalize(dev, w)
	if err := c.verify(w); err != nil {
		return err
	}
	if lp != nil {
		sp := c.tr.begin("core.Validate")
		failed, res, err := lp.Validate(w.Recompute())
		c.tr.end(sp)
		if err != nil {
			return fmt.Errorf("validate: %w", err)
		}
		c.sim.failedRegions += int64(len(failed))
		if len(failed) > 0 {
			return fmt.Errorf("validate: %d regions failed on the clean image", len(failed))
		}
		c.launchDigest(res)
		c.hashtabStats(lp.Store().Stats())
	}
	c.drain(mem, w.Outputs())
	return nil
}

// crashKernels, crashKinds: the fault campaign's default kernels and
// every crash shape that every persistency model can decide.
var (
	crashKernels = []string{"tmm", "spmv", "megakv-insert"}
	crashKinds   = []faultsim.Kind{faultsim.CleanCrash, faultsim.MidKernelCrash, faultsim.PartialEviction, faultsim.TornWriteback}
)

// crashCase is one crash-recover op. Every model of a (kernel, kind)
// pair faces the same seeded fault.
type crashCase struct {
	kernel, model string
	kind          faultsim.Kind
	after         int     // mid-kernel: blocks retired before the crash
	evict, torn   float64 // partial crashes: memsim.CrashProfile
	rngSeed       int64   // partial crashes: eviction subset and order
}

func (cc crashCase) key() string {
	k := cc.kernel + "/" + cc.model + "/" + cc.kind.String()
	switch cc.kind {
	case faultsim.MidKernelCrash:
		k += fmt.Sprintf("/after=%d", cc.after)
	case faultsim.PartialEviction, faultsim.TornWriteback:
		k += fmt.Sprintf("/evict=%.6f/torn=%.6f/rng=%d", cc.evict, cc.torn, cc.rngSeed)
	}
	return k
}

func buildCrashRecover(seed uint64) []op {
	var ops []op
	for ki, kernel := range crashKernels {
		grid, _ := kernels.New(kernel, 1).Geometry()
		for _, kind := range crashKinds {
			rng := rand.New(rand.NewSource(int64(splitmix(seed ^ splitmix(uint64(ki)<<8|uint64(kind))))))
			fault := crashCase{kernel: kernel, kind: kind, rngSeed: rng.Int63()}
			switch kind {
			case faultsim.MidKernelCrash:
				fault.after = 1 + rng.Intn(grid.Size())
			case faultsim.PartialEviction:
				fault.evict = 0.2 + 0.6*rng.Float64()
			case faultsim.TornWriteback:
				fault.evict = 0.3 + 0.5*rng.Float64()
				fault.torn = 0.2 + 0.5*rng.Float64()
			}
			for _, model := range pmodel.Names() {
				if !faultsim.ModelApplicable(model, kernel, kind) {
					continue
				}
				cc := fault
				cc.model = model
				ops = append(ops, op{key: cc.key(), run: func(c *opCtx) error { return runCrash(c, cc) }})
			}
		}
	}
	return ops
}

func runCrash(c *opCtx, cc crashCase) error {
	mem, dev := c.system(faultsim.DefaultOptions().Mem)
	w := c.setup(dev, cc.kernel)
	grid, blk := w.Geometry()
	lpCfg := core.DefaultConfig()
	sp := c.tr.begin("pmodel.New")
	m := pmodel.MustLookup(cc.model).New(dev, w, pmodel.Options{LP: &lpCfg, MaxRounds: 3, Checkpoint: true})
	c.tr.end(sp)

	if cc.kind == faultsim.MidKernelCrash {
		dev.SetCrashTrigger(&gpusim.CrashTrigger{AfterBlocks: cc.after, Fire: func(*gpusim.Device) { mem.Crash() }})
	}
	res := c.launch(dev, cc.kernel, grid, blk, m.Kernel())
	switch cc.kind {
	case faultsim.MidKernelCrash:
		if !res.Interrupted {
			return fmt.Errorf("crash trigger after %d blocks never fired", cc.after)
		}
	case faultsim.CleanCrash:
		sp := c.tr.begin("memsim.Crash")
		mem.Crash()
		c.tr.end(sp)
	default:
		rng := rand.New(rand.NewSource(cc.rngSeed))
		sp := c.tr.begin("memsim.PartialCrash")
		rep := mem.PartialCrash(rng, memsim.CrashProfile{EvictFrac: cc.evict, TornFrac: cc.torn})
		c.tr.end(sp)
		c.d.ints(int64(rep.Dirty), int64(rep.Evicted), int64(rep.Torn), int64(rep.Dropped))
	}

	sp = c.tr.begin("memsim.SnapshotNVM")
	img := mem.SnapshotNVM()
	c.tr.end(sp)
	sp = c.tr.begin("pmodel.PredictDamage")
	predicted := m.PredictDamage(img)
	c.tr.end(sp)
	sp = c.tr.begin("pmodel.Recover")
	rep, err := m.Recover()
	c.tr.end(sp)

	c.sim.recoverOps++
	c.sim.damaged += int64(len(rep.Damaged))
	c.sim.damageUnits += int64(grid.Size())
	c.sim.recoverCyc += rep.Cycles
	c.sim.replayed += int64(rep.Replayed)
	c.d.str(rep.Tier)
	c.d.ints(rep.Cycles, int64(rep.Replayed), int64(len(rep.Damaged)))
	for _, b := range rep.Damaged {
		c.d.ints(int64(b))
	}
	if !slices.Equal(predicted, rep.Damaged) {
		return fmt.Errorf("predicted damage %v but recovery repaired %v", predicted, rep.Damaged)
	}
	if err != nil {
		if core.IsTypedRecoveryError(err) {
			return fmt.Errorf("recovery gave up (typed): %w", err)
		}
		return fmt.Errorf("recovery returned an untyped error: %w", err)
	}
	c.finalize(dev, w)
	if err := c.verify(w); err != nil {
		return err
	}
	if lm, ok := m.(interface{ LP() *core.LP }); ok {
		c.hashtabStats(lm.LP().Store().Stats())
	}
	c.drain(mem, w.Outputs())
	return nil
}

// kvHorizon is the serving arrival horizon: about 800 two-block
// launches per run, so per-launch fixed cost dominates the op.
const kvHorizon = 20_000_000

// kvConfig is the lpserve default serving config for one model and seed.
func kvConfig(model string, seed uint64) serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Policy = "token-bucket"
	cfg.HorizonCycles = kvHorizon
	cfg.Model = model
	cfg.Seed = seed
	cfg.Dev.Workers = 1
	return cfg
}

// kvRequestStreams is how many seeded request streams each (model,
// loop) pair serves per round: enough that one stream's cost does not
// swing a run's figures.
const kvRequestStreams = 5

// buildKVServe alternates single-device and two-device serving runs
// over LP and EP, each with its own seeded request stream; every
// cluster run fail-stops one seeded device at a seeded launch mid-run.
func buildKVServe(seed uint64) []op {
	var ops []op
	draw := splitmix(seed)
	next := func() uint64 { draw = splitmix(draw); return draw }
	for rep := 0; rep < kvRequestStreams; rep++ {
		for _, model := range []string{"lp", "ep"} {
			cfg := kvConfig(model, next()%1_000_000+1)
			ops = append(ops, op{
				key: fmt.Sprintf("%s/run/seed=%d", model, cfg.Seed),
				run: func(c *opCtx) error { return runServe(c, cfg) },
			})
			ccfg := serve.DefaultClusterConfig()
			ccfg.Config = kvConfig(model, next()%1_000_000+1)
			ccfg.Devices = 2
			f := next()
			ccfg.FailDevice = int(f & 1)
			ccfg.FailAtLaunch = 100 + int((f>>8)%300)
			ops = append(ops, op{
				key: fmt.Sprintf("%s/cluster/seed=%d/fail=%d@%d", model, ccfg.Seed, ccfg.FailDevice, ccfg.FailAtLaunch),
				run: func(c *opCtx) error { return runServeCluster(c, ccfg) },
			})
		}
	}
	return ops
}

func (c *opCtx) serveReport(rep *serve.Report, maxBatch int) {
	c.sim.serveLaunches += int64(rep.Launches)
	c.sim.batchSlots += int64(rep.Launches) * int64(maxBatch)
	for _, cl := range rep.Classes {
		c.sim.served += int64(cl.Completed)
		c.sim.offered += int64(cl.Offered)
		c.sim.dropped += int64(cl.Dropped)
	}
}

func runServe(c *opCtx, cfg serve.Config) error {
	sp := c.tr.begin("serve.Run")
	res, err := serve.Run(cfg)
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	c.sim.serveRuns++
	c.serveReport(res.Report, cfg.MaxBatch)
	c.d.str(res.Report.String())
	sp = c.tr.begin("serve.VerifyLedger")
	err = res.VerifyLedger()
	c.tr.end(sp)
	return err
}

func runServeCluster(c *opCtx, cfg serve.ClusterConfig) error {
	sp := c.tr.begin("serve.RunCluster")
	res, err := serve.RunCluster(cfg)
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("serve cluster: %w", err)
	}
	c.sim.clusterRuns++
	c.sim.adopted += int64(res.Report.AdoptedBatches)
	c.serveReport(&res.Report.Report, cfg.MaxBatch)
	c.d.str(res.Report.String())
	if dead := res.Report.DeadDevices; len(dead) != 1 || dead[0] != cfg.FailDevice {
		return fmt.Errorf("serve cluster: dead devices %v, want [%d] failed at launch %d", dead, cfg.FailDevice, cfg.FailAtLaunch)
	}
	sp = c.tr.begin("serve.VerifyLedger")
	err = res.VerifyLedger()
	c.tr.end(sp)
	return err
}
