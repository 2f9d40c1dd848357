package gpusim

import (
	"reflect"
	"sync"
	"testing"

	"gpulp/internal/memsim"
)

// Host-parallel independence of simulator instances. Campaigns, the
// harness and the checker fan cases out across host goroutines, each case
// on its own Device and Memory. These tests run a launch once on its own
// and then on parallelDevices fresh systems at the same time, and require
// every concurrent run to match the lone run bit for bit: state shared
// between instances shows up as a divergence, or as a report under -race.

const parallelDevices = 4

// launchOutcome is every observable output of one launch on a fresh
// system; probe carries test-specific values read back after the launch.
type launchOutcome struct {
	res   LaunchResult
	trace LaunchTrace
	stats memsim.Stats
	nvm   []byte
	probe []uint64
}

// newParTestSystem builds a default device over a fresh memory, with a
// trace sink capturing the launch into out.
func newParTestSystem(out *launchOutcome) (*Device, *memsim.Memory) {
	mem := memsim.MustNew(memsim.DefaultConfig())
	dev := MustNew(DefaultConfig(), mem)
	dev.SetTraceSink(func(lt LaunchTrace) { out.trace = lt })
	return dev, mem
}

// runAloneAndConcurrently calls run once, then parallelDevices times
// concurrently, reports any concurrent outcome that differs from the lone
// one, and returns the lone outcome. run must build its own system and
// must not call t.Fatal (it runs off the test goroutine).
func runAloneAndConcurrently(t *testing.T, run func() launchOutcome) launchOutcome {
	t.Helper()
	alone := run()
	outs := make([]launchOutcome, parallelDevices)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = run()
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if !reflect.DeepEqual(alone, o) {
			t.Errorf("concurrent device %d diverged from the lone run\nalone:      %+v probe=%v\nconcurrent: %+v probe=%v",
				i, alone.res, alone.probe, o.res, o.probe)
		}
	}
	return alone
}

// TestParallelLocks runs a lock-contended kernel: acquisition counts,
// hold times and FIFO queueing stalls must not depend on what other
// devices run at the same time.
func TestParallelLocks(t *testing.T) {
	out := runAloneAndConcurrently(t, func() (o launchOutcome) {
		dev, mem := newParTestSystem(&o)
		data := dev.Alloc("data", 8192)
		lock := dev.NewLock("tab")
		o.res = dev.Launch("locks", D1(24), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) {
				if th.Linear == 0 {
					th.LockAcquire(lock)
					v := th.LoadU64(data, b.LinearIdx)
					th.Op(40)
					th.StoreU64(data, b.LinearIdx, v+uint64(b.LinearIdx))
					th.LockRelease(lock)
				}
			})
		})
		o.stats, o.nvm = mem.Stats(), mem.NVMImage()
		o.probe = []uint64{uint64(lock.Acquisitions())}
		return o
	})
	if out.res.LockStallCycles == 0 {
		t.Fatal("test kernel produced no lock queueing; lock path not exercised")
	}
	if out.probe[0] != 24 {
		t.Fatalf("lock acquired %d times, want 24", out.probe[0])
	}
}

// TestParallelRacyTouch checks the deterministic race model: blocks that
// share a sector inside the race window see a lost update, and the
// outcomes depend only on the device's own timeline.
func TestParallelRacyTouch(t *testing.T) {
	out := runAloneAndConcurrently(t, func() (o launchOutcome) {
		dev, mem := newParTestSystem(&o)
		tab := dev.Alloc("tab", 4096)
		raced := make([]uint64, 16)
		o.res = dev.Launch("racy", D1(16), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) {
				if th.Linear == 0 {
					slot := b.LinearIdx % 4
					if th.RacyTouch(tab, slot*32, 1_000_000) {
						raced[b.LinearIdx] = 1
						th.Op(500) // redo penalty
					}
					th.StoreU64(tab, slot, uint64(b.LinearIdx))
				}
			})
		})
		o.stats, o.nvm, o.probe = mem.Stats(), mem.NVMImage(), raced
		return o
	})
	// Blocks 0-3 are first on their sectors; every later block lands
	// within the window of an earlier one.
	for blk, r := range out.probe {
		if want := blk >= 4; (r == 1) != want {
			t.Errorf("block %d raced=%v, want %v", blk, r == 1, want)
		}
	}
}

// TestParallelCrashTriggers checks both crash trigger styles fire once,
// at the block the schedule predicts.
func TestParallelCrashTriggers(t *testing.T) {
	for _, tc := range []struct {
		label  string
		trig   CrashTrigger
		blocks int
	}{
		{"after-blocks", CrashTrigger{AfterBlocks: 17}, 17},
		// With 2-cycle dispatch skew and more slots than blocks, block k
		// starts at cycle 2k; AtCycle 40 interrupts at the 21st block.
		{"at-cycle", CrashTrigger{AtCycle: 40}, 20},
	} {
		t.Run(tc.label, func(t *testing.T) {
			out := runAloneAndConcurrently(t, func() (o launchOutcome) {
				dev, mem := newParTestSystem(&o)
				fired := uint64(0)
				trig := tc.trig
				trig.Fire = func(d *Device) { fired++; d.Mem().Crash() }
				dev.SetCrashTrigger(&trig)
				buf := dev.Alloc("out", 64*1024)
				o.res = dev.Launch("crash", D1(48), D1(32), func(b *Block) {
					b.ForAll(func(th *Thread) {
						th.Op(500)
						th.StoreU32(buf, b.LinearIdx*32+th.Linear, uint32(th.GlobalLinear()))
					})
				})
				o.stats, o.nvm, o.probe = mem.Stats(), mem.NVMImage(), []uint64{fired}
				return o
			})
			if !out.res.Interrupted || out.probe[0] != 1 {
				t.Fatalf("crash did not fire exactly once (res=%+v fired=%d)", out.res, out.probe[0])
			}
			if out.res.Blocks != tc.blocks {
				t.Fatalf("crash retired %d blocks, want %d", out.res.Blocks, tc.blocks)
			}
		})
	}
}

// TestParallelLaunchSelected checks the recovery primitive with a
// non-monotone selected block list: only the listed blocks run.
func TestParallelLaunchSelected(t *testing.T) {
	selected := []int{11, 3, 7, 0, 14, 2}
	out := runAloneAndConcurrently(t, func() (o launchOutcome) {
		dev, mem := newParTestSystem(&o)
		buf := dev.Alloc("out", 64*1024)
		o.res = dev.LaunchSelected("sel", D1(16), D1(32), func(b *Block) {
			b.ForAll(func(th *Thread) {
				th.StoreU32(buf, b.LinearIdx*32+th.Linear, uint32(b.LinearIdx)+1)
			})
		}, selected)
		for blk := 0; blk < 16; blk++ {
			o.probe = append(o.probe, uint64(buf.PeekU32(blk*32)))
		}
		o.stats, o.nvm = mem.Stats(), mem.NVMImage()
		return o
	})
	if out.res.Blocks != len(selected) {
		t.Fatalf("selected launch ran %d blocks, want %d", out.res.Blocks, len(selected))
	}
	ran := map[int]bool{}
	for _, blk := range selected {
		ran[blk] = true
	}
	for blk, v := range out.probe {
		if want := map[bool]uint64{true: uint64(blk) + 1}[ran[blk]]; v != want {
			t.Errorf("block %d wrote %d, want %d", blk, v, want)
		}
	}
}

// TestParallelBlockHooks checks per-block store hooks: each block's hook
// sees exactly that block's stores, and the merged stream follows
// dispatch order.
func TestParallelBlockHooks(t *testing.T) {
	out := runAloneAndConcurrently(t, func() (o launchOutcome) {
		dev, mem := newParTestSystem(&o)
		buf := dev.Alloc("out", 64*1024)
		o.res = dev.Launch("hooks", D1(12), D1(32), func(b *Block) {
			var local []uint64
			b.SetStoreHook(func(th *Thread, r memsim.Region, elemIdx int, bits uint32) {
				local = append(local, uint64(bits))
			})
			b.ForAll(func(th *Thread) {
				th.StoreU32(buf, b.LinearIdx*32+th.Linear, uint32(b.LinearIdx*1000+th.Linear))
			})
			o.probe = append(o.probe, local...)
		})
		o.stats, o.nvm = mem.Stats(), mem.NVMImage()
		return o
	})
	if len(out.probe) != 12*32 {
		t.Fatalf("hooks observed %d stores, want %d", len(out.probe), 12*32)
	}
	for i, v := range out.probe {
		if want := uint64(i/32*1000 + i%32); v != want {
			t.Fatalf("hooked store %d = %d, want %d", i, v, want)
		}
	}
}
