package gpusim

import (
	"fmt"
	"strings"
	"testing"

	"gpulp/internal/memsim"
)

func TestAtomicAddXorU64(t *testing.T) {
	d := testDevice()
	r := d.Alloc("r", 16)
	r.HostWriteU64s([]uint64{10, 0b1100})
	var oldAdd, oldXor uint64
	d.Launch("rmw", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				oldAdd = th.AtomicAddU64(r, 0, 5)
				oldXor = th.AtomicXorU64(r, 1, 0b1010)
			}
		})
	})
	if oldAdd != 10 || r.PeekU64(0) != 15 {
		t.Errorf("AtomicAddU64: old=%d new=%d, want 10/15", oldAdd, r.PeekU64(0))
	}
	if oldXor != 0b1100 || r.PeekU64(1) != 0b0110 {
		t.Errorf("AtomicXorU64: old=%b new=%b, want 1100/0110", oldXor, r.PeekU64(1))
	}
}

func TestSerializeOnCostsLikeAtomics(t *testing.T) {
	// Many SerializeOn calls to the same sector must queue like atomics.
	run := func(serialize bool) int64 {
		d := testDevice()
		r := d.Alloc("r", 64)
		res := d.Launch("ser", D1(64), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) {
				if th.Linear == 0 && serialize {
					th.SerializeOn(r, 0)
				}
				th.Op(10)
			})
		})
		return res.Cycles
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Errorf("SerializeOn added no cost: %d vs %d", with, without)
	}
}

func TestStoreHookObservesAllWidths(t *testing.T) {
	d := testDevice()
	r := d.Alloc("r", 64)
	var got []uint32
	d.SetStoreHook(func(th *Thread, reg memsim.Region, idx int, bits uint32) {
		got = append(got, bits)
	})
	defer d.SetStoreHook(nil)
	d.Launch("hooked", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear != 0 {
				return
			}
			th.StoreU32(r, 0, 7)
			th.StoreI32(r, 1, -2)
			th.StoreF32(r, 2, 3.5)
			th.StoreU64(r, 2, 0x0000000100000002) // halves: 2, 1
		})
	})
	minusTwo := int32(-2)
	want := []uint32{7, uint32(minusTwo), 1080033280, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d stores, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hook[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestStoreHookRestore(t *testing.T) {
	d := testDevice()
	h := StoreHook(func(*Thread, memsim.Region, int, uint32) {})
	if prev := d.SetStoreHook(h); prev != nil {
		t.Error("fresh device had a hook installed")
	}
	if prev := d.SetStoreHook(nil); prev == nil {
		t.Error("SetStoreHook did not return the previous hook")
	}
}

func TestDispatchSkewStaggersStarts(t *testing.T) {
	// With dispatch skew, even empty-ish blocks cannot all start at 0, so
	// a launch of N blocks takes at least N*skew cycles.
	cfg := DefaultConfig()
	cfg.NumSMs = 80
	cfg.BlockDispatchCycles = 2
	d := MustNew(cfg, memsim.MustNew(memsim.DefaultConfig()))
	res := d.Launch("tiny", D1(1000), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) { th.Op(1) })
	})
	if res.Cycles < 2*999 {
		t.Errorf("launch of 1000 blocks took %d cycles, want >= %d (dispatch skew)", res.Cycles, 2*999)
	}
}

func TestBarrierCostScalesWithWarps(t *testing.T) {
	d := testDevice()
	run := func(threads int) int64 {
		res := d.Launch("b", D1(1), D1(threads), func(b *Block) {
			for p := 0; p < 10; p++ {
				b.ForAll(func(th *Thread) { th.Op(1) })
			}
		})
		return res.Cycles
	}
	small, big := run(32), run(256)
	if big <= small {
		t.Errorf("8-warp barriers (%d cycles) not more expensive than 1-warp (%d)", big, small)
	}
}

func TestLockContendedCounter(t *testing.T) {
	d := testDevice()
	lock := d.NewLock("l")
	d.Launch("lk", D1(8), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				th.LockAcquire(lock)
				th.Op(100)
				th.LockRelease(lock)
			}
		})
	})
	if lock.Contended() == 0 {
		t.Error("8 overlapping critical sections recorded no contention")
	}
	if lock.Acquisitions() != 8 {
		t.Errorf("acquisitions = %d, want 8", lock.Acquisitions())
	}
}

func TestScheduleFixedPointStable(t *testing.T) {
	// Repeated identical launches after the damped fixed point must give
	// identical cycle counts (no residual state between launches).
	d := testDevice()
	tbl := d.Alloc("tbl", 512*32)
	tbl.HostZero()
	kernel := func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				th.AtomicCASU64(tbl, (b.LinearIdx*7)%512*4, 0, uint64(b.LinearIdx)+1)
			}
			th.Op(20)
		})
	}
	var prev int64 = -1
	for i := 0; i < 3; i++ {
		tbl.HostZero()
		res := d.Launch("fp", D1(256), D1(32), kernel)
		if prev >= 0 && res.Cycles != prev {
			t.Fatalf("launch %d took %d cycles, previous %d", i, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestRacyTouchSameActorNoRace(t *testing.T) {
	d := testDevice()
	r := d.Alloc("r", 64)
	var first, second bool
	d.Launch("touch", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				first = th.RacyTouch(r, 0, 1000)
				second = th.RacyTouch(r, 0, 1000)
			}
		})
	})
	if first || second {
		t.Error("a thread raced with its own touches")
	}
}

func TestRacyTouchCrossActorRace(t *testing.T) {
	d := testDevice()
	r := d.Alloc("r", 64)
	races := 0
	d.Launch("touch", D1(2), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 && th.RacyTouch(r, 0, 1_000_000) {
				races++
			}
		})
	})
	if races != 1 {
		t.Errorf("second block should race with the first: races=%d", races)
	}
}

// TestForAllThreadPositionAndCounters checks the position ForAll hands
// each thread against Unlinear and the warp arithmetic, that every thread
// starts with zeroed counters (thread k's Op(k) and Stall(k) must not
// leak into thread k+1), and that a second phase restarts both.
func TestForAllThreadPositionAndCounters(t *testing.T) {
	for _, dim := range []Dim3{{5, 3, 2}, {33, 1, 1}, {32, 2, 1}} {
		t.Run(fmt.Sprintf("%dx%dx%d", dim.X, dim.Y, dim.Z), func(t *testing.T) {
			d := testDevice()
			ws := d.Config().WarpSize
			nt := dim.Size()
			res := d.Launch("pos", D1(1), dim, func(b *Block) {
				for phase := 0; phase < 2; phase++ {
					next := 0
					b.ForAll(func(th *Thread) {
						if th.Linear != next {
							t.Fatalf("phase %d: thread %d ran out of order (want %d)", phase, th.Linear, next)
						}
						next++
						if th.Block() != b {
							t.Fatalf("phase %d thread %d: Block() is not the running block", phase, th.Linear)
						}
						if want := dim.Unlinear(th.Linear); th.Idx != want {
							t.Fatalf("phase %d thread %d: Idx = %v, want %v", phase, th.Linear, th.Idx, want)
						}
						if th.WarpID != th.Linear/ws || th.Lane != th.Linear%ws {
							t.Fatalf("phase %d thread %d: warp %d lane %d, want %d %d",
								phase, th.Linear, th.WarpID, th.Lane, th.Linear/ws, th.Linear%ws)
						}
						if th.instrs != 0 || th.l2Bytes != 0 || th.nvmBytes != 0 || th.atomicStall != 0 {
							t.Fatalf("phase %d thread %d starts with counters instrs=%d l2=%d nvm=%d stall=%d",
								phase, th.Linear, th.instrs, th.l2Bytes, th.nvmBytes, th.atomicStall)
						}
						th.Op(th.Linear)
						th.Stall(int64(th.Linear))
					})
					if next != nt {
						t.Fatalf("phase %d ran %d threads, want %d", phase, next, nt)
					}
				}
			})
			// A warp costs its slowest lane, the last one; stalls add up.
			var warpInstrs, stall int64
			for w := 0; w*ws < nt; w++ {
				warpInstrs += int64(min(nt, (w+1)*ws) - 1)
			}
			for k := 0; k < nt; k++ {
				stall += int64(k)
			}
			if res.WarpInstrs != 2*warpInstrs || res.AtomicStallCycles != 2*stall {
				t.Fatalf("warp instrs %d, stall %d; want %d, %d", res.WarpInstrs, res.AtomicStallCycles, 2*warpInstrs, 2*stall)
			}
		})
	}
}

// TestForAllPanicsOnLockHeldAtExit: a thread body that returns while
// holding a lock is a kernel bug, reported by name.
func TestForAllPanicsOnLockHeldAtExit(t *testing.T) {
	d := testDevice()
	l := d.NewLock("leaky")
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, `holding lock leaky`) {
			t.Fatalf("panic = %v, want the lock-held-at-exit report", r)
		}
	}()
	d.Launch("leak", D1(1), D3(5, 3, 2), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 7 {
				th.LockAcquire(l)
			}
		})
	})
	t.Fatal("launch returned although a thread exited holding a lock")
}
