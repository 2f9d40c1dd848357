package kernels

import (
	"fmt"
	"math"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// mriq computes the Q matrix of non-Cartesian MRI reconstruction: for
// every voxel, accumulate cos/sin phase contributions over all k-space
// samples. The trigonometric inner loop makes it the most purely
// instruction-throughput-bound kernel in the suite.
type mriq struct {
	voxels   int
	ksamples int

	dev        *gpusim.Device
	vx, vy, vz memsim.Region // float32 voxel coordinates
	kx, ky, kz memsim.Region // float32 k-space trajectory
	phiR, phiI memsim.Region // float32 sample weights
	qr, qi     memsim.Region // float32 outputs

	goldenR, goldenI []float32
}

const mriqBlockThreads = 64

func newMRIQ(scale int) *mriq {
	// 256 blocks x 64 threads at scale 1.
	return &mriq{voxels: 16384 * scale, ksamples: 256}
}

func (w *mriq) Name() string { return "mri-q" }

func (w *mriq) Info() Info {
	return Info{
		Description: "MRI Q-matrix computation (per-voxel trigonometric sums)",
		Suite:       "Parboil",
		Bottleneck:  "inst throughput",
		Input:       fmt.Sprintf("%d voxels, %d k-space samples", w.voxels, w.ksamples),
	}
}

func (w *mriq) Geometry() (gpusim.Dim3, gpusim.Dim3) {
	return gpusim.D1(w.voxels / mriqBlockThreads), gpusim.D1(mriqBlockThreads)
}

func (w *mriq) Setup(dev *gpusim.Device) {
	w.dev = dev
	w.vx = dev.Alloc("mriq.vx", w.voxels*4)
	w.vy = dev.Alloc("mriq.vy", w.voxels*4)
	w.vz = dev.Alloc("mriq.vz", w.voxels*4)
	w.kx = dev.Alloc("mriq.kx", w.ksamples*4)
	w.ky = dev.Alloc("mriq.ky", w.ksamples*4)
	w.kz = dev.Alloc("mriq.kz", w.ksamples*4)
	w.phiR = dev.Alloc("mriq.phir", w.ksamples*4)
	w.phiI = dev.Alloc("mriq.phii", w.ksamples*4)
	w.qr = dev.Alloc("mriq.qr", w.voxels*4)
	w.qi = dev.Alloc("mriq.qi", w.voxels*4)

	rng := newPrng(0x3129)
	vxs := make([]float32, w.voxels)
	vys := make([]float32, w.voxels)
	vzs := make([]float32, w.voxels)
	for i := range vxs {
		vxs[i] = rng.f32()
		vys[i] = rng.f32()
		vzs[i] = rng.f32()
	}
	kxs := make([]float32, w.ksamples)
	kys := make([]float32, w.ksamples)
	kzs := make([]float32, w.ksamples)
	prs := make([]float32, w.ksamples)
	pis := make([]float32, w.ksamples)
	for i := range kxs {
		kxs[i] = rng.f32() * 8
		kys[i] = rng.f32() * 8
		kzs[i] = rng.f32() * 8
		prs[i] = rng.f32()
		pis[i] = rng.f32()
	}
	w.vx.HostWriteF32s(vxs)
	w.vy.HostWriteF32s(vys)
	w.vz.HostWriteF32s(vzs)
	w.kx.HostWriteF32s(kxs)
	w.ky.HostWriteF32s(kys)
	w.kz.HostWriteF32s(kzs)
	w.phiR.HostWriteF32s(prs)
	w.phiI.HostWriteF32s(pis)
	w.qr.HostZero()
	w.qi.HostZero()

	w.goldenR = make([]float32, w.voxels)
	w.goldenI = make([]float32, w.voxels)
	for v := 0; v < w.voxels; v++ {
		var qr, qi float32
		for k := 0; k < w.ksamples; k++ {
			phase := 2 * float32(math.Pi) * (kxs[k]*vxs[v] + kys[k]*vys[v] + kzs[k]*vzs[v])
			s64, c64 := math.Sincos(float64(phase))
			c, s := float32(c64), float32(s64)
			qr += prs[k]*c - pis[k]*s
			qi += prs[k]*s + pis[k]*c
		}
		w.goldenR[v] = qr
		w.goldenI[v] = qi
	}
}

func (w *mriq) Kernel(lp *core.LP) gpusim.KernelFunc {
	return func(b *gpusim.Block) {
		r := lp.Begin(b)
		b.ForAll(func(t *gpusim.Thread) {
			v := t.GlobalLinear()
			x := t.LoadF32(w.vx, v)
			y := t.LoadF32(w.vy, v)
			z := t.LoadF32(w.vz, v)
			var qr, qi float32
			for k := 0; k < w.ksamples; k++ {
				kx := t.LoadF32(w.kx, k)
				ky := t.LoadF32(w.ky, k)
				kz := t.LoadF32(w.kz, k)
				pr := t.LoadF32(w.phiR, k)
				pi := t.LoadF32(w.phiI, k)
				phase := 2 * float32(math.Pi) * (kx*x + ky*y + kz*z)
				s64, c64 := math.Sincos(float64(phase))
				c, s := float32(c64), float32(s64)
				qr += pr*c - pi*s
				qi += pr*s + pi*c
				t.Op(20) // dot product, sincos, complex accumulate
			}
			t.StoreF32(w.qr, v, qr)
			r.UpdateF32(t, qr)
			t.StoreF32(w.qi, v, qi)
			r.UpdateF32(t, qi)
		})
		r.Commit()
	}
}

func (w *mriq) Recompute() core.RecomputeFunc {
	return func(b *gpusim.Block, r *core.Region) {
		b.ForAll(func(t *gpusim.Thread) {
			v := t.GlobalLinear()
			r.UpdateF32(t, t.LoadF32(w.qr, v))
			r.UpdateF32(t, t.LoadF32(w.qi, v))
		})
	}
}

func (w *mriq) Verify() error {
	gr := w.qr.PeekF32s(w.voxels)
	gi := w.qi.PeekF32s(w.voxels)
	for i := range w.goldenR {
		if gr[i] != w.goldenR[i] {
			return mismatchF32("mri-q.real", i, gr[i], w.goldenR[i])
		}
		if gi[i] != w.goldenI[i] {
			return mismatchF32("mri-q.imag", i, gi[i], w.goldenI[i])
		}
	}
	return nil
}

func (w *mriq) PersistBytes() int64 { return int64(w.voxels) * 8 }

// Outputs implements Workload.
func (w *mriq) Outputs() []memsim.Region { return []memsim.Region{w.qr, w.qi} }
