package core

import (
	"encoding/json"
	"fmt"

	"gpulp/internal/checksum"
	"gpulp/internal/gpusim"
	"gpulp/internal/hashtab"
)

// RecomputeFunc recomputes a block's checksum contributions from the
// durable contents of memory: it must issue the same Region.Update calls
// (over re-loaded output data) that the block's original execution issued
// over its stores. Workloads provide one per kernel; the directive
// compiler in internal/directive generates the equivalent code from the
// program slice of the annotated store (§VI, Listing 7).
type RecomputeFunc func(b *gpusim.Block, r *Region)

// merger returns the checksum store's fused-region interface, or a typed
// error when the store cannot serve fused lookups (a misconfigured or
// corrupt store organization must surface as a recovery error, not a
// panic, so campaigns and production callers can react).
func (lp *LP) merger() (hashtab.Merger, error) {
	m, ok := lp.st.(hashtab.Merger)
	if !ok {
		return nil, fmt.Errorf("core: %v store cannot serve fused regions (fusion=%d): %w",
			lp.st.Kind(), lp.fusion, ErrStoreCorrupt)
	}
	return m, nil
}

// RecomputeStates launches the recompute half of the check kernel alone:
// a grid of the original geometry in which every block rebuilds its
// checksum contributions from the durable data, returned per linear
// block index. Validate builds on it; the crash-consistency checker
// (internal/persistcheck) uses it directly to predict, from its oracle
// image, exactly which regions validation must reject. Loads of durable
// data never dirty the hierarchy's write-back state the checker is
// auditing.
func (lp *LP) RecomputeStates(recompute RecomputeFunc) ([]checksum.State, gpusim.LaunchResult) {
	perBlock := make([]checksum.State, lp.grid.Size())
	res := lp.dev.Launch("lp-validate", lp.grid, lp.blk, func(b *gpusim.Block) {
		r := lp.Begin(b)
		recompute(b, r)
		perBlock[b.LinearIdx] = r.reduce()
	})
	return perBlock, res
}

// Validate launches the check kernel (§IV-A): a grid of the original
// geometry in which each block recomputes its checksums from memory;
// the recomputed values are compared against the durably stored ones
// region by region (a region covers Fusion consecutive blocks). It
// returns the linear indices of every block belonging to a failed
// region, in ascending order, plus the combined launch timing. The error
// is non-nil (and typed) when the checksum store cannot be interrogated.
func (lp *LP) Validate(recompute RecomputeFunc) ([]int, gpusim.LaunchResult, error) {
	if recompute == nil {
		return nil, gpusim.LaunchResult{}, fmt.Errorf("core: nil recompute function: %w", ErrStoreCorrupt)
	}
	var merger hashtab.Merger
	if lp.fusion > 1 {
		m, err := lp.merger()
		if err != nil {
			return nil, gpusim.LaunchResult{}, err
		}
		merger = m
	}
	// Phase 1: every block recomputes its (partial) checksum.
	perBlock, res := lp.RecomputeStates(recompute)
	// Combine partials per region (host-visible mirror of what warp 0 of
	// a gather kernel would compute; checksums are commutative).
	perRegion := make([]checksum.State, lp.regions)
	for i, st := range perBlock {
		perRegion[i/lp.fusion].Merge(st)
	}
	// Phase 2: look the stored checksums up and compare. Fused regions
	// additionally require every member block's contribution to have
	// persisted (the contributor count must equal the group size). Each
	// validating block owns exactly one region and writes only that
	// region's slot of failedMark.
	failedMark := make([]bool, lp.regions)
	lres := lp.dev.Launch("lp-validate-lookup", gpusim.D1(lp.regions), gpusim.D1(32), func(b *gpusim.Block) {
		b.ForAll(func(t *gpusim.Thread) {
			if t.Linear != 0 {
				return
			}
			reg := b.LinearIdx
			if lp.fusion > 1 {
				stored, count := merger.LookupCount(t, uint64(reg))
				if count != uint64(lp.groupSize(reg)) || !stored.Matches(perRegion[reg], lp.cfg.Checksum) {
					failedMark[reg] = true
				}
				return
			}
			stored, ok := lp.st.Lookup(t, uint64(reg))
			if !ok || !stored.Matches(perRegion[reg], lp.cfg.Checksum) {
				failedMark[reg] = true
			}
		})
	})
	res.Cycles += lres.Cycles

	// Expand failed regions to their member blocks.
	var failed []int
	for reg, bad := range failedMark {
		if !bad {
			continue
		}
		lo := reg * lp.fusion
		hi := lo + lp.fusion
		if hi > lp.grid.Size() {
			hi = lp.grid.Size()
		}
		for blk := lo; blk < hi; blk++ {
			failed = append(failed, blk)
		}
	}
	return failed, res, nil
}

// RecoveryTier identifies the escalation level hardened recovery needed
// to reach a clean validation.
type RecoveryTier int

const (
	// TierSelective re-executed only the failed LP regions (the paper's
	// recovery flow, §II-A).
	TierSelective RecoveryTier = iota
	// TierFullGrid cleared the checksum store and re-executed the whole
	// grid over the current durable data.
	TierFullGrid
	// TierCheckpoint restored a durable checkpoint image and re-executed
	// the whole grid from it.
	TierCheckpoint
)

// MarshalJSON writes the readable String form.
func (t RecoveryTier) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// String implements fmt.Stringer.
func (t RecoveryTier) String() string {
	switch t {
	case TierSelective:
		return "selective"
	case TierFullGrid:
		return "full-grid"
	case TierCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("RecoveryTier(%d)", int(t))
}

// RecoveryReport summarizes a recovery run.
type RecoveryReport struct {
	// Rounds is the number of validate→re-execute iterations performed.
	Rounds int
	// FailedPerRound records how many blocks failed validation each
	// round (the first entry is the post-crash damage).
	FailedPerRound []int
	// ValidateCycles and RecoverCycles are the simulated costs.
	ValidateCycles int64
	RecoverCycles  int64
	// BackoffCycles is simulated time spent in deterministic exponential
	// backoff between retry rounds (RecoverBlocks only; zero elsewhere).
	BackoffCycles int64
	// Tier is the highest escalation tier recovery needed (always
	// TierSelective for ValidateAndRecover).
	Tier RecoveryTier
}

// TotalCycles returns the full recovery cost.
func (r RecoveryReport) TotalCycles() int64 { return r.ValidateCycles + r.RecoverCycles }

// String implements fmt.Stringer.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("recovery: %d rounds (%v tier), failures per round %v, %d validate + %d re-execute cycles",
		r.Rounds, r.Tier, r.FailedPerRound, r.ValidateCycles, r.RecoverCycles)
}

// validateRound runs one validation and folds its cost into rep.
func (lp *LP) validateRound(recompute RecomputeFunc, rep *RecoveryReport) ([]int, error) {
	failed, vres, err := lp.Validate(recompute)
	if err != nil {
		return nil, err
	}
	rep.Rounds++
	rep.ValidateCycles += vres.Cycles
	rep.FailedPerRound = append(rep.FailedPerRound, len(failed))
	return failed, nil
}

// selectiveRepair re-executes exactly the failed blocks and flushes the
// repairs durable (eager recovery's forward-progress guarantee).
func (lp *LP) selectiveRepair(kernel gpusim.KernelFunc, failed []int, rep *RecoveryReport) error {
	// Fused regions accumulate contributions, so a failed region's
	// entry must be re-initialized before its blocks re-merge.
	if lp.fusion > 1 {
		merger, err := lp.merger()
		if err != nil {
			return err
		}
		seen := map[int]bool{}
		for _, blk := range failed {
			if reg := blk / lp.fusion; !seen[reg] {
				seen[reg] = true
				merger.HostResetEntry(uint64(reg))
			}
		}
	}
	rres := lp.dev.LaunchSelected("lp-recover", lp.grid, lp.blk, kernel, failed)
	rep.RecoverCycles += rres.Cycles
	lp.dev.Mem().FlushAll()
	return nil
}

// ValidateAndRecover performs eager recovery (§II-A): validate all
// regions, re-execute the failed ones with the original kernel (LP
// regions here are idempotent at block granularity, the common case
// §IV-A identifies), flush to make the repairs durable, and repeat until
// a validation round passes clean. maxRounds bounds the loop; the error
// wraps ErrUnrecoverable if the system cannot be repaired within the
// bound. For recovery that degrades gracefully past that bound, use
// RecoverHardened.
func (lp *LP) ValidateAndRecover(kernel gpusim.KernelFunc, recompute RecomputeFunc, maxRounds int) (RecoveryReport, error) {
	if maxRounds <= 0 {
		maxRounds = 3
	}
	var rep RecoveryReport
	clean, err := lp.selectiveRounds(kernel, recompute, maxRounds, &rep)
	if err != nil {
		return rep, err
	}
	if !clean {
		n := rep.FailedPerRound[len(rep.FailedPerRound)-1]
		return rep, fmt.Errorf("core: %d blocks still invalid after %d recovery rounds: %w",
			n, maxRounds, ErrUnrecoverable)
	}
	return rep, nil
}

// selectiveRounds runs up to maxRounds validate→selective-repair
// iterations plus a final validation, reporting whether the last
// validation came back clean.
func (lp *LP) selectiveRounds(kernel gpusim.KernelFunc, recompute RecomputeFunc, maxRounds int, rep *RecoveryReport) (bool, error) {
	for round := 0; round < maxRounds; round++ {
		failed, err := lp.validateRound(recompute, rep)
		if err != nil {
			return false, err
		}
		if len(failed) == 0 {
			return true, nil
		}
		if err := lp.selectiveRepair(kernel, failed, rep); err != nil {
			return false, err
		}
	}
	failed, err := lp.validateRound(recompute, rep)
	if err != nil {
		return false, err
	}
	return len(failed) == 0, nil
}

// RecoverOpts configures RecoverHardened.
type RecoverOpts struct {
	// MaxRounds bounds the selective-repair tier (default 3). A negative
	// value skips the selective tier entirely and escalates immediately.
	MaxRounds int
	// Checkpoint, when non-nil, enables the final escalation tier:
	// restore this durable image and re-execute the whole grid from it.
	Checkpoint *Checkpoint
}

// RecoverHardened is graceful-degradation recovery: it tries the paper's
// selective re-execution first, and when bounded rounds do not converge
// it escalates — first to a full-grid re-execution over the current
// durable data (repairs damage selective rounds cannot pin down, e.g. a
// corrupted checksum store), then to restoring the provided checkpoint
// and recomputing everything from it (repairs even corrupted inputs and
// non-idempotent kernels). The report's Tier records which escalation
// level was needed; the error wraps ErrUnrecoverable when every tier is
// exhausted.
func (lp *LP) RecoverHardened(kernel gpusim.KernelFunc, recompute RecomputeFunc, opts RecoverOpts) (RecoveryReport, error) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 3
	}
	var rep RecoveryReport

	if maxRounds > 0 {
		clean, err := lp.selectiveRounds(kernel, recompute, maxRounds, &rep)
		if err != nil {
			return rep, err
		}
		if clean {
			return rep, nil
		}
	}

	// Tier 2: clear the checksum store and re-execute the whole grid
	// over the current durable data. Every block re-commits a fresh
	// checksum, so even an uninterpretably corrupted store is rebuilt.
	rep.Tier = TierFullGrid
	if err := lp.fullGridRepair(kernel, &rep); err != nil {
		return rep, err
	}
	failed, err := lp.validateRound(recompute, &rep)
	if err != nil {
		return rep, err
	}
	if len(failed) == 0 {
		return rep, nil
	}

	// Tier 3: roll the durable image back to the checkpoint and
	// recompute everything from it.
	if opts.Checkpoint != nil {
		rep.Tier = TierCheckpoint
		opts.Checkpoint.Restore()
		if err := lp.fullGridRepair(kernel, &rep); err != nil {
			return rep, err
		}
		failed, err = lp.validateRound(recompute, &rep)
		if err != nil {
			return rep, err
		}
		if len(failed) == 0 {
			return rep, nil
		}
	}
	return rep, fmt.Errorf("core: %d blocks invalid after %v-tier recovery: %w",
		len(failed), rep.Tier, ErrUnrecoverable)
}

// fullGridRepair durably clears the checksum store, re-executes the full
// grid, and flushes everything durable.
func (lp *LP) fullGridRepair(kernel gpusim.KernelFunc, rep *RecoveryReport) error {
	lp.st.Clear()
	rres := lp.dev.Launch("lp-recover-full", lp.grid, lp.blk, kernel)
	rep.RecoverCycles += rres.Cycles
	lp.dev.Mem().FlushAll()
	return nil
}
