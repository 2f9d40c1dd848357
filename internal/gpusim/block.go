package gpusim

import "fmt"

// Block is the per-thread-block execution context handed to a KernelFunc.
// Code between barriers is expressed as phases: ForAll (per-thread bodies)
// and WarpPhase (per-warp bodies with vector register access). Each phase
// ends with an implicit __syncthreads.
type Block struct {
	dev *Device
	// Idx is the block index within the grid; LinearIdx its linearization.
	Idx       Dim3
	LinearIdx int
	// BlockDim and GridDim are the launch dimensions.
	BlockDim Dim3
	GridDim  Dim3

	startTime int64 // pass-1 (zero-queueing) start time of the block
	cycles    int64 // cycles accumulated so far within the block

	shared map[string]any
	events []opEvent // serialization events for the post-launch sweep

	totWarpInstrs  int64
	totL2Bytes     int64
	totNVMBytes    int64
	totAtomicStall int64

	// storeHook, when set, observes this block's data stores; it shadows
	// the device-level hook. Per-block hooks are how wrappers
	// (core.Instrument, ep.Wrap) scope instrumentation to the block they
	// wrap, leaving the device-level hook to whoever installed it.
	storeHook StoreHook

	thread Thread // reused across iterations to avoid allocation
}

// Device returns the device executing this block.
func (b *Block) Device() *Device { return b.dev }

// NumWarps returns the number of warps in the block.
func (b *Block) NumWarps() int {
	ws := b.dev.cfg.WarpSize
	return (b.BlockDim.Size() + ws - 1) / ws
}

// Cycles returns the cycles the block has accumulated so far.
func (b *Block) Cycles() int64 { return b.cycles }

// SetStoreHook installs a per-block store hook, returning the previous
// one. The block hook shadows the device-level hook for this block's
// stores. Kernel wrappers use this (not Device.SetStoreHook) so their
// instrumentation ends with the block instead of leaking into later
// launches.
func (b *Block) SetStoreHook(h StoreHook) StoreHook {
	prev := b.storeHook
	b.storeHook = h
	return prev
}

// SharedF32 returns (allocating on first use) a named per-block shared
// memory array of n float32. Shared memory never touches the global
// hierarchy; charge accesses with Thread.Op as kernel code would pay
// shared-memory instructions.
func (b *Block) SharedF32(name string, n int) []float32 {
	if v, ok := b.shared[name]; ok {
		s := v.([]float32)
		if len(s) != n {
			panic(fmt.Sprintf("gpusim: shared %q reallocated with different size %d != %d", name, n, len(s)))
		}
		return s
	}
	s := make([]float32, n)
	b.shared[name] = s
	return s
}

// SharedU64 returns a named per-block shared memory array of n uint64.
func (b *Block) SharedU64(name string, n int) []uint64 {
	if v, ok := b.shared[name]; ok {
		s := v.([]uint64)
		if len(s) != n {
			panic(fmt.Sprintf("gpusim: shared %q reallocated with different size %d != %d", name, n, len(s)))
		}
		return s
	}
	s := make([]uint64, n)
	b.shared[name] = s
	return s
}

// SharedI32 returns a named per-block shared memory array of n int32.
func (b *Block) SharedI32(name string, n int) []int32 {
	if v, ok := b.shared[name]; ok {
		s := v.([]int32)
		if len(s) != n {
			panic(fmt.Sprintf("gpusim: shared %q reallocated with different size %d != %d", name, n, len(s)))
		}
		return s
	}
	s := make([]int32, n)
	b.shared[name] = s
	return s
}

// Barrier charges one explicit __syncthreads (phases already include an
// implicit trailing barrier; use this for extra synchronization points a
// fused phase models, e.g. between warp-partial staging and the final
// reduce).
func (b *Block) Barrier() {
	b.cycles += b.barrierCost()
}

// barrierCost scales the __syncthreads charge with the number of warps
// that must rendezvous: a one-warp block synchronizes almost for free.
func (b *Block) barrierCost() int64 {
	return barrierCostFor(b.dev.cfg, b.NumWarps())
}

// barrierCostFor is Block.barrierCost as a pure function of the config
// and the warp count.
func barrierCostFor(cfg Config, numWarps int) int64 {
	cost := int64(4 * numWarps)
	if max := cfg.BarrierCycles; cost > max {
		cost = max
	}
	return cost
}

// phaseCost is the roofline charge of one phase: issue-limited compute
// against the slower of the per-SM L2 and NVM bandwidth shares.
func phaseCost(cfg Config, warpInstrs, l2, nvm int64) int64 {
	compute := int64(float64(warpInstrs) / cfg.IssueWidth)
	l2Cyc := int64(float64(l2) / (cfg.L2BytesPerCycle / float64(cfg.NumSMs)))
	nvmCyc := int64(float64(nvm) / (cfg.NVMBytesPerCycle / float64(cfg.NumSMs)))
	mem := l2Cyc
	if nvmCyc > mem {
		mem = nvmCyc
	}
	phase := compute
	if mem > phase {
		phase = mem
	}
	return phase
}

// ForAll executes fn once per thread of the block and then charges the
// phase: compute cycles (divergence-aware: a warp costs its max lane),
// memory cycles (roofline against per-SM L2 and NVM bandwidth shares), and
// any serialization stalls the threads incurred, plus a barrier.
func (b *Block) ForAll(fn func(t *Thread)) {
	ws := b.dev.cfg.WarpSize
	nt := b.BlockDim.Size()
	nw := b.NumWarps()
	warpMax := make([]int64, nw)
	var l2, nvm, aStall int64

	for lin := 0; lin < nt; lin++ {
		t := &b.thread
		*t = Thread{
			b:      b,
			Idx:    b.BlockDim.Unlinear(lin),
			Linear: lin,
			WarpID: lin / ws,
			Lane:   lin % ws,
		}
		fn(t)
		if t.lockHeld != nil {
			panic("gpusim: thread exited phase while holding lock " + t.lockHeld.name)
		}
		if t.instrs > warpMax[t.WarpID] {
			warpMax[t.WarpID] = t.instrs
		}
		l2 += t.l2Bytes
		nvm += t.nvmBytes
		aStall += t.atomicStall
	}

	var warpInstrs int64
	for _, wi := range warpMax {
		warpInstrs += wi
	}
	b.totAtomicStall += aStall
	b.endPhase(warpInstrs, l2, nvm, aStall)
}

// WarpPhase executes fn once per warp, giving vector access to lanes
// (used for shuffle reductions). The phase is charged like ForAll, with
// each warp's instruction count taken as issued.
func (b *Block) WarpPhase(fn func(w *Warp)) {
	ws := b.dev.cfg.WarpSize
	nt := b.BlockDim.Size()
	nw := b.NumWarps()
	var warpInstrs, l2, nvm, stall int64

	for wid := 0; wid < nw; wid++ {
		lanes := ws
		if rem := nt - wid*ws; rem < lanes {
			lanes = rem
		}
		w := Warp{b: b, ID: wid, Lanes: lanes}
		fn(&w)
		warpInstrs += w.instrs
		l2 += w.l2Bytes
		nvm += w.nvmBytes
		stall += w.stall
	}
	b.totAtomicStall += stall
	b.endPhase(warpInstrs, l2, nvm, stall)
}

func (b *Block) endPhase(warpInstrs, l2, nvm, stall int64) {
	b.cycles += phaseCost(b.dev.cfg, warpInstrs, l2, nvm) + stall + b.barrierCost()

	b.totWarpInstrs += warpInstrs
	b.totL2Bytes += l2
	b.totNVMBytes += nvm
}
