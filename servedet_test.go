package gpulp_test

// Determinism pin for the MEGA-KV serving layer: a full serving run —
// seeded load generation, admission, batching, kernel launches, epoch
// drains, latency accounting — must produce a byte-identical report and
// byte-identical durable output images whether runs execute one at a
// time or fanned out on host goroutines, for every registered
// persistency model and the bare baseline, and for a sweep of seeds.
// This is the contract that lets the serve harness experiment and the
// lpfault serve campaign fan out without perturbing a single number.

import (
	"bytes"
	"testing"

	"gpulp/internal/pmodel"
	"gpulp/internal/serve"
)

// runServing runs one serving config. It may run off the test
// goroutine, so it reports with t.Errorf and returns nil on failure.
func runServing(t *testing.T, model string, seed uint64) *serve.RunResult {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.HorizonCycles = 400_000
	cfg.Model = model
	cfg.Seed = seed
	r, err := serve.Run(cfg)
	if err != nil {
		t.Errorf("serve %s seed=%d: %v", model, seed, err)
		return nil
	}
	if err := r.VerifyLedger(); err != nil {
		t.Errorf("serve %s seed=%d: %v", model, seed, err)
	}
	return r
}

// TestServeDeterminism runs the serving loop under every registered
// persistency model plus the bare baseline, one at a time and fanned
// out, and asserts byte-identical rendered reports and durable output
// images.
func TestServeDeterminism(t *testing.T) {
	models := append([]string{"none"}, pmodel.Names()...)
	run := func(i int) *serve.RunResult { return runServing(t, models[i], 1) }
	serialRuns := fanOut(len(models), 1, run)
	parallelRuns := fanOut(len(models), detParallel, run)
	if t.Failed() {
		t.FailNow()
	}
	for k, model := range models {
		t.Run(model, func(t *testing.T) {
			serial, parallel := serialRuns[k], parallelRuns[k]
			if serial.Report.String() != parallel.Report.String() {
				t.Errorf("report diverged\nserial:\n%s\nparallel:\n%s",
					serial.Report.String(), parallel.Report.String())
			}
			so, po := serial.Outputs(), parallel.Outputs()
			if len(so) == 0 || len(so) != len(po) {
				t.Fatalf("output image count diverged: %d vs %d", len(so), len(po))
			}
			for i := range so {
				if !bytes.Equal(so[i], po[i]) {
					t.Errorf("durable output %d diverged between one-at-a-time and fanned-out runs", i)
				}
			}
		})
	}
}

// TestServeDeterminismHostParallel sweeps seeds with a host-parallel
// goroutine fan-out and demands every run match its serial twin — the
// serving loop must not share state across concurrent runs.
func TestServeDeterminismHostParallel(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	run := func(i int) string {
		if r := runServing(t, "lp", seeds[i]); r != nil {
			return r.Report.String()
		}
		return ""
	}
	serial := fanOut(len(seeds), 1, run)
	parallel := fanOut(len(seeds), detParallel, run)
	for i := range seeds {
		if serial[i] != parallel[i] {
			t.Errorf("seed %d: host-parallel sweep diverged from serial run", seeds[i])
		}
	}
}

// runClusterServing serves from a 3-device cluster and fail-stops
// failDevice during the second launch. It may run off the test
// goroutine, so it reports with t.Errorf and returns nil on failure.
func runClusterServing(t *testing.T, failDevice int) *serve.ClusterRunResult {
	t.Helper()
	cfg := serve.DefaultClusterConfig()
	cfg.HorizonCycles = 400_000
	cfg.Devices = 3
	cfg.Model = "lp"
	cfg.Seed = 7
	cfg.FailAtLaunch = 2
	cfg.FailDevice = failDevice
	r, err := serve.RunCluster(cfg)
	if err != nil {
		t.Errorf("cluster serve fail-device=%d: %v", failDevice, err)
		return nil
	}
	if err := r.VerifyLedger(); err != nil {
		t.Errorf("cluster serve fail-device=%d: %v", failDevice, err)
	}
	if len(r.Report.DeadDevices) != 1 || r.Report.DeadDevices[0] != failDevice {
		t.Errorf("cluster serve fail-device=%d: expected only that device dead, got %v",
			failDevice, r.Report.DeadDevices)
	}
	return r
}

// TestServeClusterDeterminism runs cluster-backed serving through a
// mid-serving device loss — replicated batch launches, survivor
// adoption, degraded-mode shedding — one at a time and fanned out, for
// two failed devices, and asserts byte-identical rendered reports and
// durable output images.
func TestServeClusterDeterminism(t *testing.T) {
	failDevices := []int{1, 2}
	run := func(i int) *serve.ClusterRunResult { return runClusterServing(t, failDevices[i]) }
	serialRuns := fanOut(len(failDevices), 1, run)
	parallelRuns := fanOut(len(failDevices), detParallel, run)
	if t.Failed() {
		t.FailNow()
	}
	for k, dev := range failDevices {
		serial, parallel := serialRuns[k], parallelRuns[k]
		if serial.Report.String() != parallel.Report.String() {
			t.Errorf("fail-device=%d: cluster report diverged\nserial:\n%s\nparallel:\n%s",
				dev, serial.Report.String(), parallel.Report.String())
		}
		so, po := serial.Outputs(), parallel.Outputs()
		if len(so) == 0 || len(so) != len(po) {
			t.Fatalf("fail-device=%d: output image count diverged: %d vs %d", dev, len(so), len(po))
		}
		for i := range so {
			if !bytes.Equal(so[i], po[i]) {
				t.Errorf("fail-device=%d: durable output %d diverged", dev, i)
			}
		}
	}
}
