package gpusim

import (
	"errors"
	"testing"
	"testing/quick"

	"gpulp/internal/memsim"
)

func TestConfigValidationBranches(t *testing.T) {
	mem := memsim.MustNew(memsim.DefaultConfig())
	mutations := []struct {
		field  string
		mutate func(*Config)
	}{
		{"NumSMs", func(c *Config) { c.NumSMs = 0 }},
		{"WarpSize", func(c *Config) { c.WarpSize = 0 }},
		{"MaxBlocksPerSM", func(c *Config) { c.MaxBlocksPerSM = 0 }},
		{"MaxThreadsPerSM", func(c *Config) { c.MaxThreadsPerSM = 0 }},
		{"IssueWidth", func(c *Config) { c.IssueWidth = 0 }},
		{"L2BytesPerCycle", func(c *Config) { c.L2BytesPerCycle = 0 }},
		{"NVMBytesPerCycle", func(c *Config) { c.NVMBytesPerCycle = 0 }},
		{"WatchdogSteps", func(c *Config) { c.WatchdogSteps = -1 }},
		{"Workers", func(c *Config) { c.Workers = 2 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mutate(&cfg)
		d, err := New(cfg, mem)
		if d != nil || err == nil {
			t.Errorf("%s: New accepted invalid config (err=%v)", m.field, err)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error %v does not wrap ErrConfig", m.field, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != m.field {
			t.Errorf("%s: error %v does not name the field", m.field, err)
		}
	}
	t.Run("nil memory", func(t *testing.T) {
		if _, err := New(DefaultConfig(), nil); !errors.Is(err, ErrConfig) {
			t.Fatalf("nil memory: err = %v, want ErrConfig", err)
		}
	})
	t.Run("valid", func(t *testing.T) {
		if _, err := New(DefaultConfig(), mem); err != nil {
			t.Fatalf("default config rejected: %v", err)
		}
		retired := DefaultConfig()
		retired.Workers = 1
		if _, err := New(retired, mem); err != nil {
			t.Fatalf("Workers=1 rejected: %v", err)
		}
	})
	t.Run("mustnew panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("MustNew with invalid config did not panic")
			}
		}()
		bad := DefaultConfig()
		bad.NumSMs = 0
		MustNew(bad, mem)
	})
}

// TestPropertyDim3RoundTrip: Linear and Unlinear are inverse bijections
// over arbitrary extents.
func TestPropertyDim3RoundTrip(t *testing.T) {
	f := func(xr, yr, zr uint8, pick uint16) bool {
		d := Dim3{int(xr%7) + 1, int(yr%7) + 1, int(zr%7) + 1}
		lin := int(pick) % d.Size()
		idx := d.Unlinear(lin)
		if idx.X >= d.X || idx.Y >= d.Y || idx.Z >= d.Z {
			return false
		}
		return d.Linear(idx) == lin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGlobalLinearCoversGrid(t *testing.T) {
	d := testDevice()
	seen := map[int]bool{}
	grid, blk := D2(3, 2), D2(4, 8)
	d.Launch("cover", grid, blk, func(b *Block) {
		b.ForAll(func(th *Thread) { seen[th.GlobalLinear()] = true })
	})
	want := grid.Size() * blk.Size()
	if len(seen) != want {
		t.Errorf("GlobalLinear covered %d ids, want %d", len(seen), want)
	}
	for i := 0; i < want; i++ {
		if !seen[i] {
			t.Fatalf("id %d missing (ids not dense)", i)
		}
	}
}
