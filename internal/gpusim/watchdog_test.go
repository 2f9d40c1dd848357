package gpusim

import (
	"bytes"
	"errors"
	"testing"

	"gpulp/internal/memsim"
)

// wdDevice builds a small device + memory pair with the watchdog armed.
func wdDevice(t *testing.T, steps int64) (*Device, *memsim.Memory) {
	t.Helper()
	mcfg := memsim.DefaultConfig()
	mcfg.CacheBytes = 1 << 14
	mem := memsim.MustNew(mcfg)
	cfg := DefaultConfig()
	cfg.NumSMs = 2
	cfg.WatchdogSteps = steps
	return MustNew(cfg, mem), mem
}

// spinKernel returns a kernel whose thread 0 of each block spin-locks on
// the block's own word of locks, writes a token, and unlocks — the lock
// acquisition loop of §IV-D, reduced to its livelock-prone core.
func spinKernel(locks, out memsim.Region) KernelFunc {
	return func(b *Block) {
		b.ForAll(func(t *Thread) {
			if t.Linear != 0 {
				return
			}
			for t.AtomicCASU64(locks, b.LinearIdx, 0, 1) != 0 {
				t.Op(1)
			}
			t.StoreU64(out, b.LinearIdx, uint64(b.LinearIdx)+1)
			t.AtomicExchU64(locks, b.LinearIdx, 0)
		})
	}
}

// launchResultsEqual compares two LaunchResults, comparing the
// watchdog abort by value (the pointers necessarily differ).
func launchResultsEqual(a, b LaunchResult) bool {
	if (a.Watchdog == nil) != (b.Watchdog == nil) {
		return false
	}
	if a.Watchdog != nil && *a.Watchdog != *b.Watchdog {
		return false
	}
	a.Watchdog, b.Watchdog = nil, nil
	return a == b
}

// TestWatchdogAbortsStuckLockLivelock: a stuck-at fault pinning a lock
// word to "held" turns the acquisition spin into a livelock; the watchdog
// must convert it into a typed ErrWatchdog abort with a consistent crash
// image instead of hanging, identically on a rerun.
func TestWatchdogAbortsStuckLockLivelock(t *testing.T) {
	run := func() (LaunchResult, []byte) {
		dev, mem := wdDevice(t, 20_000)
		locks := dev.Alloc("locks", 4*8)
		out := dev.Alloc("out", 4*8)
		// Pin bit 0 of block 1's lock word to 1: the word durably reads
		// "held" and no store can clear it.
		mem.PlantStuckAt(locks.Base+8, 0, 1)
		res := dev.Launch("spin", D1(4), D1(32), spinKernel(locks, out))
		return res, mem.NVMImage()
	}

	res, img := run()
	if !res.Interrupted || res.Watchdog == nil {
		t.Fatalf("livelock not aborted: %+v", res)
	}
	if !errors.Is(res.Watchdog, ErrWatchdog) {
		t.Fatalf("abort %v does not wrap ErrWatchdog", res.Watchdog)
	}
	if res.Watchdog.Block != 1 || res.Watchdog.Kernel != "spin" {
		t.Fatalf("abort blames %q block %d, want spin block 1", res.Watchdog.Kernel, res.Watchdog.Block)
	}
	if res.Blocks != 1 {
		t.Fatalf("retired blocks = %d, want 1 (only block 0 precedes the hang)", res.Blocks)
	}

	resR, imgR := run()
	if !launchResultsEqual(res, resR) {
		t.Fatalf("rerun abort diverges:\nfirst %+v (%v)\nrerun %+v (%v)", res, res.Watchdog, resR, resR.Watchdog)
	}
	if !bytes.Equal(img, imgR) {
		t.Fatal("durable images diverge between watchdog-abort reruns")
	}
}

// TestWatchdogQuietOnHealthyKernel: with a generous budget the watchdog
// must not perturb a normal launch — results are bit-identical to a
// watchdog-disabled run.
func TestWatchdogQuietOnHealthyKernel(t *testing.T) {
	run := func(steps int64) LaunchResult {
		dev, _ := wdDevice(t, steps)
		locks := dev.Alloc("locks", 4*8)
		out := dev.Alloc("out", 4*8)
		res := dev.Launch("spin", D1(4), D1(32), spinKernel(locks, out))
		for i := 0; i < 4; i++ {
			if got := out.PeekU64(i); got != uint64(i)+1 {
				t.Fatalf("out[%d] = %d, want %d", i, got, i+1)
			}
		}
		return res
	}
	armed, disarmed := run(1_000_000), run(0)
	if armed.Watchdog != nil || armed.Interrupted {
		t.Fatalf("healthy launch aborted: %+v", armed)
	}
	if !launchResultsEqual(armed, disarmed) {
		t.Fatalf("armed watchdog perturbed a healthy launch:\narmed    %+v\ndisarmed %+v", armed, disarmed)
	}
}

// TestWatchdogAbortsFlushOnlyLivelock: a spin loop whose only charged
// instruction is FlushLine (polling a host-side view, flushing while it
// waits) must still be stopped by the watchdog, at the same instruction
// on a rerun.
func TestWatchdogAbortsFlushOnlyLivelock(t *testing.T) {
	const budget = 5_000
	run := func() (LaunchResult, []byte) {
		dev, mem := wdDevice(t, budget)
		flags := dev.Alloc("flags", 4*8)
		flags.HostZero()
		res := dev.Launch("flushspin", D1(4), D1(32), func(b *Block) {
			b.ForAll(func(t *Thread) {
				t.StoreU64(flags, b.LinearIdx, uint64(t.Linear))
				if b.LinearIdx != 2 || t.Linear != 5 {
					return
				}
				// Nothing ever sets the word this thread waits for.
				for flags.PeekU64(3) != 1 {
					t.FlushLine(flags, 2*8)
				}
			})
		})
		return res, mem.NVMImage()
	}

	res, img := run()
	if !res.Interrupted || res.Watchdog == nil {
		t.Fatalf("flush-only livelock not aborted: %+v", res)
	}
	if !errors.Is(res.Watchdog, ErrWatchdog) {
		t.Fatalf("abort %v does not wrap ErrWatchdog", res.Watchdog)
	}
	want := WatchdogError{Kernel: "flushspin", Block: 2, Thread: 5, Steps: budget + 1}
	if *res.Watchdog != want {
		t.Fatalf("abort = %+v, want %+v", *res.Watchdog, want)
	}
	if res.Blocks != 2 {
		t.Fatalf("retired blocks = %d, want 2", res.Blocks)
	}

	resR, imgR := run()
	if !launchResultsEqual(res, resR) {
		t.Fatalf("rerun abort diverges:\nfirst %+v (%v)\nrerun %+v (%v)", res, res.Watchdog, resR, resR.Watchdog)
	}
	if !bytes.Equal(img, imgR) {
		t.Fatal("durable images diverge between watchdog-abort reruns")
	}
}
