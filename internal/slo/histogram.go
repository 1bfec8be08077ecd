package slo

import (
	"math/bits"
	"time"
)

// Histogram is an HDR-style log-linear histogram of non-negative int64
// values (scheduler-time microseconds in this package).  Values below
// nSub are exact; above, each power of two is split into nSub linear
// sub-buckets, bounding the relative quantile error at 1/nSub ≈ 3%.
// Counts are integers and bucket placement is a pure function of the
// value, so the histogram state — and every quantile read from it — is
// independent of observation order: identically-seeded simulations
// yield byte-identical reports.
//
// The zero value is ready to use.  Histogram is not concurrency-safe;
// the Engine serializes access under its own lock.
type Histogram struct {
	counts   []int64 // grown on demand to the highest used index
	count    int64
	sum      int64
	min, max int64 // exact extremes (min only valid when count > 0)
}

const (
	subBits = 5 // 32 linear sub-buckets per power of two
	nSub    = 1 << subBits
)

// bucketIndex maps a value to its bucket.  Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < nSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	major := bits.Len64(uint64(v)) - subBits - 1 // >= 0 here
	sub := int(v >> uint(major))                 // in [nSub, 2*nSub)
	return major*nSub + sub
}

// bucketUpper is the inclusive upper bound of a bucket.
func bucketUpper(idx int) int64 {
	if idx < 2*nSub {
		return int64(idx)
	}
	major := idx/nSub - 1
	sub := int64(idx%nSub + nSub)
	return (sub+1)<<uint(major) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		grown := make([]int64, idx+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[idx]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// ObserveDuration records a scheduler-time duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of
// the bucket the rank lands in, clamped to the exact observed extremes
// — so an empty histogram reports 0, a single-sample histogram reports
// that sample at every quantile, and no estimate ever exceeds the true
// maximum.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) || rank == 0 {
		rank++
	}
	if rank > h.count {
		rank = h.count
	}
	cum := int64(0)
	v := h.max
	for idx, n := range h.counts {
		cum += n
		if cum >= rank {
			v = bucketUpper(idx)
			break
		}
	}
	if v > h.max {
		v = h.max
	}
	if v < h.min {
		v = h.min
	}
	return v
}
