// Command perfbench is the repository's host-time benchmark. The paper's
// results are simulated cycles and NVM writes; perfbench measures how
// long the simulator stack takes to produce them. Simulated statistics
// are outputs it checks, never metrics to improve.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (which imports the repository through a
// replace directive) into .bench_build and runs it. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are the human-readable report,
// including the host's nproc, GOMAXPROCS, Go version and commit.
//
// # Workloads
//
// Every op builds a fresh simulated system, so modelled caches start
// empty. A single goroutine runs the ops as a closed loop of one
// client, with gpusim Workers=1 and GOMAXPROCS=1, so the garbage
// collector's work lands on the measured CPU.
//
//   - paper-suite: the eight Table I kernels (scale 1, 4 MiB cache) ×
//     {bare, LP global array (Table V), LP quad lock-based (Table III)}.
//     An op is kernels.Setup → core.New → Device.Launch (+ finalizer) →
//     Verify → LP.Validate on the clean image → FlushAll. The per-access
//     cost of memsim and per-instruction cost of gpusim dominate, and
//     MRI-Q's Setup is visible. No crash or recovery code runs.
//   - crash-recover: {tmm, spmv, megakv-insert} × {lp, ep, sbrp, strict}
//     × {clean-crash, mid-kernel, partial-evict, torn-lines} on the fault
//     campaign's 256 KiB cache, minus what faultsim.ModelApplicable
//     rejects. An op is Setup → Spec.New → instrumented Launch (a
//     CrashTrigger for mid-kernel) → Crash/PartialCrash → SnapshotNVM →
//     PredictDamage → Recover → Verify → FlushAll. The footprint is far
//     above the cache, so eviction, write-back and EP/strict flush and
//     fence traffic show, and so does pmodel recovery, which no other
//     workload runs. Every model of a (kernel, crash) pair faces the same
//     seeded fault, so a gain for LP cannot quietly cost the others.
//   - kv-serve: the lpserve default config (token-bucket admission) at a
//     20M-cycle horizon over {lp, ep}; ops alternate serve.Run and
//     serve.RunCluster (2 devices, one seeded fail-stop mid-run), each
//     followed by VerifyLedger. About 800 two-block launches per run, so
//     per-launch fixed cost dominates: device set-up, epoch drain,
//     batching and the ledger. It covers both serving loops.
//
// # Seeds
//
// --seed fixes the op list: op order, crash points, evict and torn
// fractions, partial-crash draws, serving request streams and cluster
// failure points. DefaultSeed (1) is the seed the digests in pins.go were
// recorded on; HeldOutSeed (20201019) is kept out of tuning so a gain
// claimed on DefaultSeed can be re-checked on it.
//
// # Correctness
//
// Every op, warm-up included, is checked: paper-suite ops must Verify
// against the host golden reference and LP.Validate must fail no region;
// crash-recover ops need PredictDamage equal to the repaired set, no
// recovery error and a verified output; kv-serve runs need VerifyLedger
// to pass on every surviving device and the cluster run to lose exactly
// its seeded device. Each op also folds its simulated statistics (launch
// cycles, warp instructions, memsim traffic, NVM output bytes, checksum
// store counters, recovery reports, serving report text) into a digest.
// A digest must equal its pin in pins.go, keyed by op key, or else the
// digest the same op gave earlier in the run. Any failure or mismatch
// counts in failed, and correct is false.
//
// # Measuring
//
// A run sets up three times (build the op list, run the warm-up op) and
// reports the median as setup_s. It then runs whole rounds of the
// seed-shuffled list until about --seconds have passed. Host noise comes
// in bursts, so times use each op's median over the rounds: ops_per_s is
// the list length over the sum of those medians, op_ms_p50 and op_ms_p90
// are nearest-rank percentiles of them. allocs_per_op and
// alloc_mb_per_op count Go heap allocations over the measured rounds.
//
// With --trace 1, rounds alternate traced and untraced. Spans named
// <module>.<Func> wrap each public call, under an op.<workload> span
// carrying the op id; self time is a span's duration minus the union of
// its children. The spans are written as Chrome trace-event JSON (view
// in Perfetto) to .bench_build/traces, a per-layer table is printed,
// and the tracing overhead is traced vs untraced ops_per_s.
//
// # Which layer metric should move which end-to-end metric
//
// A layer metric moves ops_per_s by at most its share of an op: the
// simulator is single-threaded and nothing contends.
//
//   - kernels.setup_ms, kernels.verify_ms: ops_per_s on paper-suite
//     (Setup ≈17% of an op) and crash-recover (≈8%); nothing on
//     kv-serve. Memoising Setup moves its cost into setup_s.
//   - gpusim.launch_ms, ns_per_warp_instr, ns_per_block, ns_per_access
//     (launch self time over memsim loads+stores in those launches):
//     sim_minstr_per_s and ops_per_s on paper-suite (launch ≈77%) and
//     crash-recover (≈72%); barely kv-serve. A schedule heap would show
//     in ns_per_block on the large-grid SAD and MRI-GRIDDING.
//   - memsim.crash_ms, snapshot_ms, flush_ms: op_ms_p90 on
//     crash-recover; nothing on paper-suite.
//   - core.new_ms, core.validate_ms: ops_per_s on paper-suite.
//   - pmodel.bind_ms, predict_ms, recover_ms: op_ms_p90 and ops_per_s on
//     crash-recover only (Recover ≈13-16%).
//   - serve.run_ms, cluster_run_ms, ledger_ms, us_per_launch:
//     served_kreq_per_s, op_ms_p50 and ops_per_s on kv-serve only.
//   - runtime.gc_cpu_frac: ops_per_s everywhere, whenever allocs_per_op
//     drops.
//   - The counts (gpusim.launches, blocks, warp_instrs, stall cycles;
//     memsim.accesses, hit_rate, NVM line reads and writes, flushed
//     lines; hashtab collisions and race redos; core.failed_regions;
//     pmodel damaged_frac, recover_sim_cycles, replayed; serve launches,
//     batch_fill, drop_frac; cluster.adopted_batches) are simulated, so
//     they repeat exactly and explain the times above. A host-only
//     optimisation must leave every one unchanged.
//
// A layer a workload never calls reports 0 for its per-layer metrics.
package main
