package gpusim

import (
	"testing"
	"testing/quick"

	"gpulp/internal/memsim"
)

func testDevice() *Device {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxBlocksPerSM = 2
	mem := memsim.MustNew(memsim.Config{
		LineSize: 128, CacheBytes: 1 << 20, Ways: 8,
		NVMReadNS: 160, NVMWriteNS: 480, NVMBandwidthGBs: 326.4,
	})
	return MustNew(cfg, mem)
}

func TestDim3(t *testing.T) {
	d := D3(4, 3, 2)
	if d.Size() != 24 {
		t.Fatalf("Size = %d, want 24", d.Size())
	}
	for lin := 0; lin < d.Size(); lin++ {
		idx := d.Unlinear(lin)
		if got := d.Linear(idx); got != lin {
			t.Fatalf("Linear(Unlinear(%d)) = %d", lin, got)
		}
	}
	if D1(7) != (Dim3{7, 1, 1}) || D2(3, 4) != (Dim3{3, 4, 1}) {
		t.Error("D1/D2 constructors wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	mem := memsim.MustNew(memsim.DefaultConfig())
	bad := DefaultConfig()
	bad.NumSMs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with 0 SMs did not panic")
		}
	}()
	MustNew(bad, mem)
}

func TestLaunchFunctional(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 1024*4)
	res := d.Launch("fill", D1(8), D1(128), func(b *Block) {
		b.ForAll(func(th *Thread) {
			gid := th.GlobalLinear()
			th.StoreI32(out, gid, int32(gid*3))
		})
	})
	if res.Blocks != 8 {
		t.Errorf("Blocks = %d, want 8", res.Blocks)
	}
	if res.Cycles <= 0 {
		t.Errorf("Cycles = %d, want > 0", res.Cycles)
	}
	for i := 0; i < 1024; i++ {
		if got := out.PeekI32(i); got != int32(i*3) {
			t.Fatalf("out[%d] = %d, want %d", i, got, i*3)
		}
	}
}

func TestBlockAndThreadGeometry(t *testing.T) {
	d := testDevice()
	seenBlocks := map[int]bool{}
	d.Launch("geom", D2(2, 3), D2(8, 4), func(b *Block) {
		if b.GridDim != D2(2, 3) || b.BlockDim != D2(8, 4) {
			t.Errorf("bad dims: %+v", b)
		}
		seenBlocks[b.LinearIdx] = true
		if b.NumWarps() != 1 {
			t.Errorf("NumWarps = %d, want 1 for 32 threads", b.NumWarps())
		}
		lanes := map[int]bool{}
		b.ForAll(func(th *Thread) {
			if th.WarpID != 0 {
				t.Errorf("WarpID = %d", th.WarpID)
			}
			lanes[th.Lane] = true
			if got := b.BlockDim.Linear(th.Idx); got != th.Linear {
				t.Errorf("thread Idx/Linear mismatch: %v -> %d != %d", th.Idx, got, th.Linear)
			}
		})
		if len(lanes) != 32 {
			t.Errorf("saw %d lanes, want 32", len(lanes))
		}
	})
	if len(seenBlocks) != 6 {
		t.Errorf("executed %d blocks, want 6", len(seenBlocks))
	}
}

func TestLaunchSelected(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 64*4)
	kernel := func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				th.StoreI32(out, b.LinearIdx, 1)
			}
		})
	}
	res := d.LaunchSelected("sel", D1(64), D1(32), kernel, []int{3, 17, 42})
	if res.Blocks != 3 {
		t.Errorf("Blocks = %d, want 3", res.Blocks)
	}
	for i := 0; i < 64; i++ {
		want := int32(0)
		if i == 3 || i == 17 || i == 42 {
			want = 1
		}
		if got := out.PeekI32(i); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestLaunchSelectedEmpty(t *testing.T) {
	d := testDevice()
	res := d.LaunchSelected("none", D1(4), D1(32), func(b *Block) {}, nil)
	if res.Blocks != 0 || res.Cycles != 0 {
		t.Errorf("empty selection ran something: %+v", res)
	}
}

func TestSharedMemoryPerBlock(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 16*4)
	d.Launch("shmem", D1(16), D1(32), func(b *Block) {
		s := b.SharedI32("acc", 1)
		b.ForAll(func(th *Thread) {
			th.Op(1)
			s[0]++ // all threads of this block bump the shared counter
		})
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				th.StoreI32(out, b.LinearIdx, s[0])
			}
		})
	})
	for i := 0; i < 16; i++ {
		if got := out.PeekI32(i); got != 32 {
			t.Errorf("block %d shared count = %d, want 32 (leaked across blocks?)", i, got)
		}
	}
}

func TestSharedResizePanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("shared realloc with different size did not panic")
		}
	}()
	d.Launch("bad", D1(1), D1(32), func(b *Block) {
		b.SharedF32("x", 4)
		b.SharedF32("x", 8)
	})
}

func TestWarpShuffleDown(t *testing.T) {
	d := testDevice()
	d.Launch("shfl", D1(1), D1(32), func(b *Block) {
		b.WarpPhase(func(w *Warp) {
			v := make([]uint64, w.Lanes)
			for i := range v {
				v[i] = uint64(i)
			}
			got := w.ShuffleDownU64(v, 16)
			for i := 0; i < 16; i++ {
				if got[i] != uint64(i+16) {
					t.Errorf("lane %d got %d, want %d", i, got[i], i+16)
				}
			}
			// Out-of-range lanes keep their own value.
			for i := 16; i < 32; i++ {
				if got[i] != uint64(i) {
					t.Errorf("lane %d got %d, want own value %d", i, got[i], i)
				}
			}
		})
	})
}

func TestWarpReduce(t *testing.T) {
	d := testDevice()
	d.Launch("reduce", D1(1), D1(64), func(b *Block) {
		b.WarpPhase(func(w *Warp) {
			v := make([]uint64, w.Lanes)
			var wantSum, wantXor uint64
			for i := range v {
				v[i] = uint64(i*7 + w.ID)
				wantSum += v[i]
				wantXor ^= v[i]
			}
			if got := w.ReduceAdd(v); got != wantSum {
				t.Errorf("warp %d ReduceAdd = %d, want %d", w.ID, got, wantSum)
			}
			if got := w.ReduceXor(v); got != wantXor {
				t.Errorf("warp %d ReduceXor = %d, want %d", w.ID, got, wantXor)
			}
		})
	})
}

func TestWarpReducePartialWarp(t *testing.T) {
	d := testDevice()
	d.Launch("partial", D1(1), D1(40), func(b *Block) { // 1 full + 1 partial warp
		warps := 0
		b.WarpPhase(func(w *Warp) {
			warps++
			v := make([]uint64, w.Lanes)
			var want uint64
			for i := range v {
				v[i] = uint64(i + 1)
				want += v[i]
			}
			if got := w.ReduceAdd(v); got != want {
				t.Errorf("warp %d (lanes=%d) ReduceAdd = %d, want %d", w.ID, w.Lanes, got, want)
			}
		})
		if warps != 2 {
			t.Errorf("saw %d warps, want 2", warps)
		}
	})
}

func TestAtomicAddCorrectness(t *testing.T) {
	d := testDevice()
	ctr := d.Alloc("ctr", 4)
	ctr.HostZero()
	d.Launch("atomadd", D1(4), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) {
			th.AtomicAddI32(ctr, 0, 1)
		})
	})
	if got := ctr.PeekI32(0); got != 256 {
		t.Errorf("counter = %d, want 256", got)
	}
}

func TestAtomicCASClaimsOnce(t *testing.T) {
	d := testDevice()
	slot := d.Alloc("slot", 8)
	slot.HostZero()
	winners := d.Alloc("winners", 4)
	winners.HostZero()
	d.Launch("cas", D1(2), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) {
			old := th.AtomicCASU64(slot, 0, 0, uint64(th.GlobalLinear()+1))
			if old == 0 {
				th.AtomicAddI32(winners, 0, 1)
			}
		})
	})
	if got := winners.PeekI32(0); got != 1 {
		t.Errorf("CAS winners = %d, want exactly 1", got)
	}
}

func TestAtomicExch(t *testing.T) {
	d := testDevice()
	slot := d.Alloc("slot", 8)
	slot.HostWriteU64s([]uint64{7})
	var old uint64
	d.Launch("exch", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				old = th.AtomicExchU64(slot, 0, 99)
			}
		})
	})
	if old != 7 || slot.PeekU64(0) != 99 {
		t.Errorf("exch old=%d new=%d, want 7/99", old, slot.PeekU64(0))
	}
}

func TestAtomicContentionCostsTime(t *testing.T) {
	d := testDevice()
	hot := d.Alloc("hot", 4)
	hot.HostZero()
	cold := d.Alloc("cold", 64*64*4)
	cold.HostZero()

	same := d.Launch("same-addr", D1(8), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) { th.AtomicAddI32(hot, 0, 1) })
	})
	// Fresh device to reset the timeline fairly.
	d2 := testDevice()
	cold2 := d2.Alloc("cold", 64*64*4)
	cold2.HostZero()
	diff := d2.Launch("diff-addr", D1(8), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) {
			th.AtomicAddI32(cold2, th.GlobalLinear()*8, 1) // distinct sectors
		})
	})
	if same.AtomicStallCycles <= diff.AtomicStallCycles {
		t.Errorf("same-address atomics stalled %d cycles <= distinct-address %d",
			same.AtomicStallCycles, diff.AtomicStallCycles)
	}
	if same.Cycles <= diff.Cycles {
		t.Errorf("same-address launch (%d cycles) not slower than distinct (%d)",
			same.Cycles, diff.Cycles)
	}
}

func TestLockMutualCostAndStats(t *testing.T) {
	d := testDevice()
	lock := d.NewLock("table")
	ctr := d.Alloc("ctr", 4)
	ctr.HostZero()
	res := d.Launch("locked", D1(16), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				th.LockAcquire(lock)
				v := th.LoadI32(ctr, 0)
				th.StoreI32(ctr, 0, v+1)
				th.LockRelease(lock)
			}
		})
	})
	if got := ctr.PeekI32(0); got != 16 {
		t.Errorf("counter = %d, want 16", got)
	}
	if lock.Acquisitions() != 16 {
		t.Errorf("acquisitions = %d, want 16", lock.Acquisitions())
	}
	if res.LockStallCycles == 0 {
		t.Error("no lock stall recorded despite contention")
	}
	if lock.Name() != "table" {
		t.Errorf("lock name = %q", lock.Name())
	}
}

func TestLockStallGrowsWithContenders(t *testing.T) {
	run := func(blocks int) int64 {
		d := testDevice()
		lock := d.NewLock("l")
		res := d.Launch("lk", D1(blocks), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) {
				if th.Linear == 0 {
					th.LockAcquire(lock)
					th.Op(50)
					th.LockRelease(lock)
				}
			})
		})
		return res.Cycles
	}
	small, big := run(8), run(256)
	if big <= small*4 {
		t.Errorf("lock serialization does not scale: 8 blocks = %d cycles, 256 blocks = %d", small, big)
	}
}

func TestLockMisusePanics(t *testing.T) {
	d := testDevice()
	lock := d.NewLock("l")
	t.Run("release unheld", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		d.Launch("bad", D1(1), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) { th.LockRelease(lock) })
		})
	})
	t.Run("exit phase holding", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		d.Launch("bad2", D1(1), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) {
				if th.Linear == 0 {
					th.LockAcquire(lock)
				}
			})
		})
	})
}

func TestDivergenceChargesMaxLane(t *testing.T) {
	d := testDevice()
	uniform := d.Launch("uniform", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(100) })
	})
	divergent := d.Launch("divergent", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Lane == 0 {
				th.Op(100)
			} else {
				th.Op(1)
			}
		})
	})
	if divergent.WarpInstrs != uniform.WarpInstrs {
		t.Errorf("divergent warp cost %d != max-lane cost %d", divergent.WarpInstrs, uniform.WarpInstrs)
	}
}

func TestMoreWorkMoreCycles(t *testing.T) {
	d := testDevice()
	light := d.Launch("light", D1(32), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(10) })
	})
	heavy := d.Launch("heavy", D1(32), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(1000) })
	})
	if heavy.Cycles <= light.Cycles {
		t.Errorf("heavy %d cycles <= light %d", heavy.Cycles, light.Cycles)
	}
}

func TestSchedulerOverlapsBlocks(t *testing.T) {
	// With 8 slots (4 SMs x 2 blocks), 8 identical blocks should take about
	// the same time as 1, and 64 blocks about 8x one wave. Dispatch skew is
	// disabled to make the wave arithmetic exact.
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxBlocksPerSM = 2
	cfg.BlockDispatchCycles = 0
	d := MustNew(cfg, memsim.MustNew(memsim.DefaultConfig()))
	kernel := func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(1000) })
	}
	one := d.Launch("one", D1(1), D1(64), kernel)
	eight := d.Launch("eight", D1(8), D1(64), kernel)
	sixtyFour := d.Launch("64", D1(64), D1(64), kernel)
	if eight.Cycles != one.Cycles {
		t.Errorf("8 blocks on 8 slots = %d cycles, want %d (full overlap)", eight.Cycles, one.Cycles)
	}
	if want := one.Cycles * 8; sixtyFour.Cycles != want {
		t.Errorf("64 blocks = %d cycles, want %d (8 waves)", sixtyFour.Cycles, want)
	}
}

func TestOccupancyLimitedByThreads(t *testing.T) {
	// MaxThreadsPerSM=2048; blocks of 1024 threads allow only 2 per SM even
	// though MaxBlocksPerSM is higher in this config.
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxBlocksPerSM = 8
	cfg.MaxThreadsPerSM = 2048
	mem := memsim.MustNew(memsim.DefaultConfig())
	d := MustNew(cfg, mem)
	res := d.Launch("big-blocks", D1(4), D1(1024), func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(100) })
	})
	if res.MaxConcurrency != 2 {
		t.Errorf("MaxConcurrency = %d, want 2", res.MaxConcurrency)
	}
}

func TestMemoryTrafficAccounted(t *testing.T) {
	d := testDevice()
	data := d.Alloc("data", 1<<20)
	res := d.Launch("stream", D1(16), D1(128), func(b *Block) {
		b.ForAll(func(th *Thread) {
			gid := th.GlobalLinear()
			v := th.LoadF32(data, gid*32) // stride past line size: all misses
			th.StoreF32(data, gid*32, v+1)
		})
	})
	if res.L2Bytes == 0 || res.NVMBytes == 0 {
		t.Errorf("traffic not accounted: %+v", res)
	}
	stats := d.Mem().Stats()
	if stats.Misses == 0 {
		t.Error("strided stream produced no misses")
	}
}

func TestBandwidthBoundSlower(t *testing.T) {
	// Same instruction count; one variant streams memory. The streaming
	// variant must be slower under the roofline.
	d := testDevice()
	data := d.Alloc("data", 8<<20)
	compute := d.Launch("compute", D1(32), D1(128), func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(64) })
	})
	stream := d.Launch("stream", D1(32), D1(128), func(b *Block) {
		b.ForAll(func(th *Thread) {
			gid := th.GlobalLinear()
			for k := 0; k < 32; k++ {
				th.LoadF32(data, (gid*32+k*131)%(2<<20))
				th.Op(1)
			}
		})
	})
	if stream.Cycles <= compute.Cycles {
		t.Errorf("memory-streaming kernel (%d) not slower than compute (%d)", stream.Cycles, compute.Cycles)
	}
}

func TestLaunchPanicsOnBadArgs(t *testing.T) {
	d := testDevice()
	for _, tc := range []struct {
		name  string
		grid  Dim3
		block Dim3
	}{
		{"empty grid", D1(0), D1(32)},
		{"empty block", D1(1), D1(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			d.Launch("bad", tc.grid, tc.block, func(b *Block) {})
		})
	}
	t.Run("nil kernel", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		d.Launch("bad", D1(1), D1(1), nil)
	})
	t.Run("selected out of range", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		d.LaunchSelected("bad", D1(4), D1(32), func(b *Block) {}, []int{4})
	})
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		d := testDevice()
		tbl := d.Alloc("tbl", 4096*8)
		tbl.HostZero()
		res := d.Launch("mix", D1(32), D1(64), func(b *Block) {
			b.ForAll(func(th *Thread) {
				th.Op(17)
				th.AtomicCASU64(tbl, (th.GlobalLinear()*31)%4096, 0, uint64(th.GlobalLinear()))
			})
		})
		return res.Cycles, res.AtomicStallCycles
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("nondeterministic launch: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

func TestResultString(t *testing.T) {
	d := testDevice()
	res := d.Launch("k", D1(1), D1(32), func(b *Block) { b.ForAll(func(th *Thread) { th.Op(1) }) })
	if res.String() == "" {
		t.Error("empty String()")
	}
}

// TestPropertyWarpReduceMatchesScalar checks ReduceAdd/ReduceXor against a
// scalar fold for arbitrary lane values.
func TestPropertyWarpReduceMatchesScalar(t *testing.T) {
	d := testDevice()
	f := func(vals [32]uint64) bool {
		var wantSum, wantXor uint64
		for _, v := range vals {
			wantSum += v
			wantXor ^= v
		}
		ok := true
		d.Launch("prop", D1(1), D1(32), func(b *Block) {
			b.WarpPhase(func(w *Warp) {
				if w.ReduceAdd(vals[:]) != wantSum || w.ReduceXor(vals[:]) != wantXor {
					ok = false
				}
			})
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCyclesToMS(t *testing.T) {
	cfg := DefaultConfig()
	ms := cfg.CyclesToMS(int64(cfg.ClockGHz * 1e9)) // one second of cycles
	if ms < 999 || ms > 1001 {
		t.Errorf("CyclesToMS(1s) = %v ms", ms)
	}
}

// TestPhaseCostMatchesSerialHelpers pins the pure timing helpers to an
// independent restatement of the roofline and barrier arithmetic.
func TestPhaseCostMatchesSerialHelpers(t *testing.T) {
	cfg := DefaultConfig()
	for _, nw := range []int{1, 2, 7, 32, 64} {
		got := barrierCostFor(cfg, nw)
		want := int64(4 * nw)
		if want > cfg.BarrierCycles {
			want = cfg.BarrierCycles
		}
		if got != want {
			t.Errorf("barrierCostFor(%d) = %d, want %d", nw, got, want)
		}
	}
	cases := []struct{ wi, l2, nvm int64 }{
		{0, 0, 0}, {1000, 0, 0}, {10, 50000, 10}, {10, 10, 90000}, {12345, 6789, 4242},
	}
	for _, c := range cases {
		compute := int64(float64(c.wi) / cfg.IssueWidth)
		l2Cyc := int64(float64(c.l2) / (cfg.L2BytesPerCycle / float64(cfg.NumSMs)))
		nvmCyc := int64(float64(c.nvm) / (cfg.NVMBytesPerCycle / float64(cfg.NumSMs)))
		want := compute
		if l2Cyc > want {
			want = l2Cyc
		}
		if nvmCyc > want {
			want = nvmCyc
		}
		if got := phaseCost(cfg, c.wi, c.l2, c.nvm); got != want {
			t.Errorf("phaseCost(%+v) = %d, want %d", c, got, want)
		}
	}
}
