package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (q in (0,100]) of
// xs: the smallest value with at least q% of the samples at or below it.
// xs need not be sorted; it is not modified. NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// digest is a 64-bit FNV-1a accumulator over an op's simulated results.
// Every field an op folds in is deterministic given the op's key, so two
// runs of the same op must produce the same digest.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func newDigest() digest { return fnvOffset }

func (d *digest) bytes(b []byte) {
	h := *d
	for _, x := range b {
		h ^= digest(x)
		h *= fnvPrime
	}
	*d = h
}

func (d *digest) str(s string) {
	h := *d
	for i := 0; i < len(s); i++ {
		h ^= digest(s[i])
		h *= fnvPrime
	}
	*d = h
}

func (d *digest) ints(vs ...int64) {
	h := *d
	for _, v := range vs {
		for i := 0; i < 64; i += 8 {
			h ^= digest(byte(uint64(v) >> i))
			h *= fnvPrime
		}
	}
	*d = h
}
