package gpulp_test

// Determinism regression suite for host fan-out: every observable output
// of a set of runs must be bit-identical whether the runs execute one at
// a time or detParallel at once on host goroutines. Campaigns take the
// width as their Parallel option; single-system runs are fanned out
// through parwork, the pool the harness and campaigns share, so any
// state leaking between simulator instances shows up as a divergence.
// This is the contract that lets the harness and fault campaigns
// parallelize without perturbing any number the repo reports.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"gpulp/internal/cluster"
	"gpulp/internal/core"
	"gpulp/internal/faultsim"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
	"gpulp/internal/kernels"
	"gpulp/internal/memsim"
	"gpulp/internal/parwork"
)

// detParallel is the host fan-out width each pin compares against a
// one-at-a-time run.
const detParallel = 8

// fanOut runs fn(i) for every i in [0, n) on width host goroutines and
// returns the results in index order. fn runs off the test goroutine, so
// it must report with t.Errorf, never t.Fatal.
func fanOut[T any](n, width int, fn func(i int) T) []T {
	out := make([]T, n)
	parwork.Do(n, width, func(i int) { out[i] = fn(i) })
	return out
}

// kernelRun captures every observable output of one workload run.
type kernelRun struct {
	launch   gpusim.LaunchResult
	finalize gpusim.LaunchResult
	memStats memsim.Stats
	tabStats hashtab.Stats
	nvm      []byte
}

func runWorkload(t *testing.T, name string, lpCfg *core.Config) kernelRun {
	t.Helper()
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := gpusim.MustNew(gpusim.DefaultConfig(), mem)
	w := kernels.New(name, 1)
	w.Setup(dev)
	grid, blk := w.Geometry()

	var lp *core.LP
	if lpCfg != nil {
		lp = core.New(dev, *lpCfg, grid, blk)
	}
	mem.ResetStats()
	var run kernelRun
	run.launch = dev.Launch(name, grid, blk, w.Kernel(lp))
	if f, ok := w.(kernels.Finalizer); ok {
		fname, fg, fb, k := f.FinalizeKernel()
		run.finalize = dev.Launch(fname, fg, fb, k)
	}
	if err := w.Verify(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	run.memStats = mem.Stats()
	if lp != nil {
		run.tabStats = *lp.Store().Stats()
	}
	run.nvm = mem.NVMImage()
	return run
}

func compareRuns(t *testing.T, label string, serial, parallel kernelRun) {
	t.Helper()
	if serial.launch != parallel.launch {
		t.Errorf("%s: launch result diverged\nserial:   %+v\nparallel: %+v", label, serial.launch, parallel.launch)
	}
	if serial.finalize != parallel.finalize {
		t.Errorf("%s: finalize result diverged\nserial:   %+v\nparallel: %+v", label, serial.finalize, parallel.finalize)
	}
	if !reflect.DeepEqual(serial.memStats, parallel.memStats) {
		t.Errorf("%s: memory stats diverged\nserial:   %+v\nparallel: %+v", label, serial.memStats, parallel.memStats)
	}
	if serial.tabStats != parallel.tabStats {
		t.Errorf("%s: checksum-store stats diverged\nserial:   %+v\nparallel: %+v", label, serial.tabStats, parallel.tabStats)
	}
	if !bytes.Equal(serial.nvm, parallel.nvm) {
		for i := range serial.nvm {
			if serial.nvm[i] != parallel.nvm[i] {
				t.Errorf("%s: NVM image diverged at byte %#x (serial %#x, parallel %#x)", label, i, serial.nvm[i], parallel.nvm[i])
				break
			}
		}
	}
}

// TestParallelDeterminismKernels runs every registered workload — bare and
// under the default LP configuration — one at a time and fanned out,
// asserting that kernel cycles, byte/stall totals, NVM write counters
// (total and by-region), collision statistics, and the full post-run
// durable memory image are bit-identical.
func TestParallelDeterminismKernels(t *testing.T) {
	names := append([]string{}, kernels.Names...)
	names = append(names, "megakv-mixed")
	lpCfg := core.DefaultConfig()
	run := func(i int) kernelRun {
		if i%2 == 0 {
			return runWorkload(t, names[i/2], nil)
		}
		return runWorkload(t, names[i/2], &lpCfg)
	}
	serial := fanOut(2*len(names), 1, run)
	parallel := fanOut(2*len(names), detParallel, run)
	for k, name := range names {
		t.Run(name, func(t *testing.T) {
			compareRuns(t, name+"/bare", serial[2*k], parallel[2*k])
			compareRuns(t, name+"/lp", serial[2*k+1], parallel[2*k+1])
		})
	}
}

// TestParallelDeterminismStores exercises the contended checksum-store
// designs (quadratic probing and cuckoo hashing, lock-free and
// lock-based), whose collision statistics and probe sequences are the
// most order-sensitive state in the runtime.
func TestParallelDeterminismStores(t *testing.T) {
	configs := []struct {
		label string
		cfg   core.Config
	}{
		{"quad-lockfree", core.Config{Store: hashtab.Quad, LockMode: hashtab.LockFree}},
		{"quad-lockbased", core.Config{Store: hashtab.Quad, LockMode: hashtab.LockBased}},
		{"quad-noatomic", core.Config{Store: hashtab.Quad, LockMode: hashtab.NoAtomic}},
		{"cuckoo-lockfree", core.Config{Store: hashtab.Cuckoo, LockMode: hashtab.LockFree}},
		{"chained-lockfree", core.Config{Store: hashtab.Chained, LockMode: hashtab.LockFree}},
		{"sequential-reduce", func() core.Config {
			c := core.DefaultConfig()
			c.Reduction = core.ReduceSequential
			return c
		}()},
	}
	run := func(i int) kernelRun {
		cfg := configs[i].cfg
		cfg.Seed = 0x1157c
		return runWorkload(t, "tmm", &cfg)
	}
	serial := fanOut(len(configs), 1, run)
	parallel := fanOut(len(configs), detParallel, run)
	for k, tc := range configs {
		t.Run(tc.label, func(t *testing.T) {
			compareRuns(t, "tmm/"+tc.label, serial[k], parallel[k])
		})
	}
}

// recoveryRun crashes a kernel mid-launch, recovers, and captures the
// observable outcome.
type recoveryRun struct {
	report core.RecoveryReport
	nvm    []byte
}

// runRecovery crashes TMM after quarters/4 of its grid has retired.
func runRecovery(t *testing.T, quarters int) recoveryRun {
	t.Helper()
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := gpusim.MustNew(gpusim.DefaultConfig(), mem)
	w := kernels.New("tmm", 1)
	w.Setup(dev)
	grid, blk := w.Geometry()
	lp := core.New(dev, core.DefaultConfig(), grid, blk)
	kernel := w.Kernel(lp)

	dev.SetCrashTrigger(&gpusim.CrashTrigger{AfterBlocks: grid.Size() * quarters / 4})
	res := dev.Launch("tmm", grid, blk, kernel)
	if !res.Interrupted {
		t.Errorf("crash at %d/4: trigger did not fire", quarters)
	}
	rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 3)
	if err != nil {
		t.Errorf("crash at %d/4: recovery failed: %v", quarters, err)
	}
	if err := w.Verify(); err != nil {
		t.Errorf("crash at %d/4: post-recovery verify failed: %v", quarters, err)
	}
	return recoveryRun{report: rep, nvm: mem.NVMImage()}
}

// TestParallelDeterminismRecovery asserts that a mid-launch crash, the
// validation pass, and the selective re-execution produce identical
// recovery reports and durable images one at a time and fanned out, at
// two crash points.
func TestParallelDeterminismRecovery(t *testing.T) {
	quarters := []int{1, 2}
	run := func(i int) recoveryRun { return runRecovery(t, quarters[i]) }
	serial := fanOut(len(quarters), 1, run)
	parallel := fanOut(len(quarters), detParallel, run)
	for i, q := range quarters {
		if !reflect.DeepEqual(serial[i].report, parallel[i].report) {
			t.Errorf("crash at %d/4: recovery report diverged\nserial:   %+v\nparallel: %+v", q, serial[i].report, parallel[i].report)
		}
		if !bytes.Equal(serial[i].nvm, parallel[i].nvm) {
			t.Errorf("crash at %d/4: post-recovery NVM image diverged", q)
		}
	}
}

// TestParallelDeterminismFaultCampaign runs a small seeded fault-injection
// campaign at Parallel 1 and detParallel and compares the full
// structured reports.
func TestParallelDeterminismFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign smoke test skipped in -short mode")
	}
	run := func(par int) *faultsim.Report {
		c := faultsim.DefaultCampaign(2)
		c.Kernels = []string{"tmm", "megakv-insert"}
		c.Parallel = par
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("parallel=%d: campaign failed: %v", par, err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(detParallel)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("campaign reports diverged\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// selfHealRun captures every observable output of one self-healing
// recovery under the online media-error process: the heal report (with
// its quarantine sets), the typed degraded outcome, and the durable image.
type selfHealRun struct {
	rep core.HealReport
	deg *core.DegradedError
	nvm []byte
}

func runSelfHeal(t *testing.T, seed uint64) selfHealRun {
	t.Helper()
	mcfg := memsim.DefaultConfig()
	mcfg.CacheBytes = 256 << 10
	mcfg.Fault = memsim.FaultConfig{Enabled: true, Seed: seed, TransientPerWrite: 0.05, StuckPerWrite: 0.01}
	mem := memsim.MustNew(mcfg)
	dcfg := gpusim.DefaultConfig()
	dcfg.WatchdogSteps = 50_000
	dev := gpusim.MustNew(dcfg, mem)

	grid, blk := gpusim.D1(32), gpusim.D1(64)
	n := grid.Size() * blk.Size()
	locks := dev.Alloc("locks", grid.Size()*8)
	out := dev.Alloc("out", n*4)
	locks.HostZero()
	out.HostZero()
	lp := core.New(dev, core.DefaultConfig(), grid, blk)
	kernel := func(b *gpusim.Block) {
		b.ForAll(func(th *gpusim.Thread) {
			if th.Linear == 0 {
				for th.AtomicCASU64(locks, b.LinearIdx, 0, 1) != 0 {
					th.Op(1)
				}
			}
		})
		r := lp.Begin(b)
		b.ForAll(func(th *gpusim.Thread) {
			gid := th.GlobalLinear()
			v := uint32(gid)*2654435761 + 12345
			th.StoreU32(out, gid, v)
			r.Update(th, v)
		})
		b.ForAll(func(th *gpusim.Thread) {
			if th.Linear == 0 {
				th.AtomicExchU64(locks, b.LinearIdx, 0)
			}
		})
		r.Commit()
	}
	recompute := func(b *gpusim.Block, r *core.Region) {
		b.ForAll(func(th *gpusim.Thread) {
			r.Update(th, th.LoadU32(out, th.GlobalLinear()))
		})
	}

	// A planted stuck-at pins block 9's lock word "held": re-execution
	// livelocks and the watchdog must abort it identically in every run.
	mem.PlantStuckAt(locks.Base+9*8, 0, 1)
	res := dev.Launch("lockfill", grid, blk, kernel)
	if res.Watchdog == nil {
		mem.Crash()
	}
	rep, err := lp.SelfHeal(kernel, recompute, core.HealOpts{
		MaxAttempts: 5,
		RegionOf: func(line uint64) int {
			if line < out.Base || line >= out.Base+uint64(n*4) {
				return -1
			}
			return int(line-out.Base) / (blk.Size() * 4)
		},
	})
	var deg *core.DegradedError
	if err != nil && !errors.As(err, &deg) {
		t.Errorf("seed %d: self-heal failed: %v", seed, err)
	}
	return selfHealRun{rep: rep, deg: deg, nvm: mem.NVMImage()}
}

// TestParallelDeterminismSelfHeal drives the full self-healing stack —
// online media-error process, ECC scrubs, watchdog-aborted re-execution,
// quarantine — one at a time and fanned out, for two media fault seeds,
// and asserts bit-identical heal reports, quarantine sets, typed degraded
// outcomes, and durable images.
func TestParallelDeterminismSelfHeal(t *testing.T) {
	seeds := []uint64{77, 78}
	run := func(i int) selfHealRun { return runSelfHeal(t, seeds[i]) }
	serial := fanOut(len(seeds), 1, run)
	parallel := fanOut(len(seeds), detParallel, run)
	for i, seed := range seeds {
		s, p := serial[i], parallel[i]
		if !reflect.DeepEqual(s.rep, p.rep) {
			t.Errorf("seed %d: heal reports diverged\nserial:   %+v\nparallel: %+v", seed, s.rep, p.rep)
		}
		if !reflect.DeepEqual(s.deg, p.deg) {
			t.Errorf("seed %d: degraded outcomes diverged\nserial:   %+v\nparallel: %+v", seed, s.deg, p.deg)
		}
		if !bytes.Equal(s.nvm, p.nvm) {
			t.Errorf("seed %d: post-heal NVM images diverged", seed)
		}
		if s.rep.WatchdogAborts == 0 {
			t.Errorf("seed %d: planted stuck lock never tripped the watchdog: %+v", seed, s.rep)
		}
	}
}

// TestParallelDeterminismRateSweep runs a reduced media-error rate sweep
// at Parallel 1 and detParallel and compares the full structured reports.
func TestParallelDeterminismRateSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("rate-sweep smoke test skipped in -short mode")
	}
	run := func(par int) *faultsim.RateReport {
		s := faultsim.DefaultRateSweep(2)
		s.Rates = []float64{0.02, 0.15}
		s.StuckFrac = 0.3
		s.Blocks, s.BlockThreads = 16, 32
		s.Parallel = par
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("parallel=%d: rate sweep failed: %v", par, err)
		}
		return rep
	}
	serial := run(1)
	parallel := run(detParallel)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("rate-sweep reports diverged\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// clusterRun captures every observable output of one multi-device
// cluster run with injected failures.
type clusterRun struct {
	report  []byte // report JSON
	errText string
	pool    []byte
}

func runCluster(t *testing.T, seed uint64) clusterRun {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Devices = 3
	cfg.Jobs = 6
	cfg.BlocksPerJob = 2
	cfg.BlockThreads = 32
	cfg.Seed = seed
	cfg.Failures = []cluster.FailurePlan{
		{Job: 1, Kind: cluster.Hang, AfterBlocks: 1},
		{Job: 4, Kind: cluster.FailStop, AfterBlocks: 1},
	}
	cl := cluster.MustNew(cfg)
	rep, err := cl.Run()
	if err != nil {
		t.Errorf("seed %#x: cluster run failed: %v", seed, err)
		return clusterRun{}
	}
	if verr := cl.Verify(); verr != nil {
		t.Errorf("seed %#x: pool audit failed: %v", seed, verr)
	}
	js, jerr := json.Marshal(rep)
	if jerr != nil {
		t.Error(jerr)
	}
	return clusterRun{report: js, pool: cl.Pool().NVMImage()}
}

// TestParallelDeterminismCluster drives a 3-device cluster through a hang
// and a fail-stop — heartbeat-timeout detection, shard fencing, durable
// harvest, cross-device re-execution — one at a time and fanned out,
// for two seeds, and asserts byte-identical cluster reports and shared
// pool images.
func TestParallelDeterminismCluster(t *testing.T) {
	seeds := []uint64{0x7001, 0x7003}
	run := func(i int) clusterRun { return runCluster(t, seeds[i]) }
	serial := fanOut(len(seeds), 1, run)
	parallel := fanOut(len(seeds), detParallel, run)
	for i, seed := range seeds {
		if !bytes.Equal(serial[i].report, parallel[i].report) {
			t.Errorf("seed %#x: cluster reports diverged\nserial:   %s\nparallel: %s", seed, serial[i].report, parallel[i].report)
		}
		if !bytes.Equal(serial[i].pool, parallel[i].pool) {
			t.Errorf("seed %#x: shared pool images diverged", seed)
		}
	}
}

// TestParallelDeterminismClusterCampaign runs a reduced multi-device
// failover campaign at Parallel 1 and detParallel, comparing the full
// structured reports — the acceptance pin for the cluster campaign's
// fan-out contract.
func TestParallelDeterminismClusterCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaign smoke test skipped in -short mode")
	}
	run := func(par int) *faultsim.ClusterReport {
		c := faultsim.DefaultClusterCampaign(2)
		c.DeviceCounts = []int{2, 3}
		c.Jobs = 4
		c.BlocksPerJob = 2
		c.BlockThreads = 32
		c.Parallel = par
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("parallel=%d: cluster campaign failed: %v", par, err)
		}
		return rep
	}
	if base, alt := run(1), run(detParallel); !reflect.DeepEqual(base, alt) {
		t.Errorf("cluster campaign reports diverged\nbase: %+v\nalt:  %+v", base, alt)
	}
}

// replicatedRun captures every observable output of one replicated
// cluster run: the structured report plus the shared durable pool.
type replicatedRun struct {
	report []byte // report JSON
	pool   []byte
}

func runReplicatedCluster(t *testing.T, seed uint64) replicatedRun {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Devices = 3
	cfg.Jobs = 6
	cfg.BlocksPerJob = 2
	cfg.BlockThreads = 32
	cfg.Seed = seed
	cfg.Replicas = 2
	cfg.Placer = cluster.Affinity
	cfg.Model = "sbrp"
	cfg.Failures = []cluster.FailurePlan{
		{Job: 2, Kind: cluster.FailStop, AfterBlocks: 1},
	}
	cl := cluster.MustNew(cfg)
	rep, err := cl.Run()
	if err != nil {
		t.Errorf("seed %#x: replicated cluster run failed: %v", seed, err)
		return replicatedRun{}
	}
	if verr := cl.Verify(); verr != nil {
		t.Errorf("seed %#x: pool audit failed: %v", seed, verr)
	}
	if rep.Adopted == 0 {
		t.Errorf("seed %#x: failover never adopted a replica: %+v", seed, rep)
	}
	if rep.ReexecutedBlocks != 0 {
		t.Errorf("seed %#x: replicated failover re-executed %d blocks", seed, rep.ReexecutedBlocks)
	}
	js, jerr := json.Marshal(rep)
	if jerr != nil {
		t.Error(jerr)
	}
	return replicatedRun{report: js, pool: cl.Pool().NVMImage()}
}

// TestParallelDeterminismReplicatedCluster drives a 3-device cluster
// with R=2 replicated placement through a fail-stop — replica fan-out
// inside the shared-clock loop, quorum harvest, freshness judging,
// zero-re-execution adoption, online rebalance — one at a time and
// fanned out, for two seeds, and asserts byte-identical reports and pool
// images.
func TestParallelDeterminismReplicatedCluster(t *testing.T) {
	seeds := []uint64{0x7002, 0x7004}
	run := func(i int) replicatedRun { return runReplicatedCluster(t, seeds[i]) }
	serial := fanOut(len(seeds), 1, run)
	parallel := fanOut(len(seeds), detParallel, run)
	for i, seed := range seeds {
		if !bytes.Equal(serial[i].report, parallel[i].report) {
			t.Errorf("seed %#x: replicated cluster reports diverged\nserial:   %s\nparallel: %s",
				seed, serial[i].report, parallel[i].report)
		}
		if !bytes.Equal(serial[i].pool, parallel[i].pool) {
			t.Errorf("seed %#x: replicated cluster NVM images diverged", seed)
		}
	}
}

// TestParallelDeterminismReplicaCampaign runs a reduced replicated
// failover campaign at Parallel 1 and detParallel, comparing the full
// structured reports — the acceptance pin for the -replicas campaign's
// determinism contract.
func TestParallelDeterminismReplicaCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("replica campaign smoke test skipped in -short mode")
	}
	run := func(par int) *faultsim.ReplicaReport {
		c := faultsim.DefaultReplicaCampaign(2)
		c.Devices = 3
		c.Jobs = 4
		c.BlocksPerJob = 2
		c.BlockThreads = 32
		c.Parallel = par
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("parallel=%d: replica campaign failed: %v", par, err)
		}
		return rep
	}
	if base, alt := run(1), run(detParallel); !reflect.DeepEqual(base, alt) {
		t.Errorf("replica campaign reports diverged\nbase: %+v\nalt:  %+v", base, alt)
	}
}
