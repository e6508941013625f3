package main

import (
	"math"
	"math/bits"
)

// hist is a latency histogram with linear sub-buckets inside each power of
// two (HDR style): a value is recorded with a relative error of at most
// 1/subBuckets, so quantiles are not quantized to 2x the way the engine's
// log2 metrics.Histogram quantizes them. Count, sum, min and max are exact,
// and two histograms merge by adding counts. Not safe for concurrent use:
// every recorder owns its histogram and the results are merged afterwards.
type hist struct {
	counts []int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits // 128 linear steps per octave: <= 0.8% error
)

func newHist() *hist {
	return &hist{counts: make([]int64, (64-subBits+1)*subBuckets), min: math.MaxInt64}
}

// bucketOf maps a non-negative value to its bucket. Values below subBuckets
// are exact; above, the top subBits+1 bits select octave and linear step.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - (subBits + 1)
	return (shift+1)<<subBits + int(v>>uint(shift)) - subBuckets
}

// bucketUpper is the largest value bucket i admits.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i>>subBits - 1
	step := int64(i&(subBuckets-1)) + subBuckets
	return (step+1)<<uint(shift) - 1
}

// observe records v once; negative values clamp to zero.
func (h *hist) observe(v int64) { h.observeN(v, 1) }

// observeN records v with weight n.
func (h *hist) observeN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)] += n
	h.n += n
	h.sum += v * n
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// merge adds o's observations to h.
func (h *hist) merge(o *hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) count() int64 { return h.n }

func (h *hist) maxValue() int64 { return h.max }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the value at rank ceil(q*n) (the nearest-rank definition),
// reported as its bucket's upper bound clamped to the exact max.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if ub := bucketUpper(i); ub < h.max {
				return ub
			}
			return h.max
		}
	}
	return h.max
}

// sliced is a latency distribution cut by the measured window's slices: one
// histogram per slice and one over all of them. The reported percentile is
// the median over the slices' percentiles (slices without samples left out),
// which one stall in one slice cannot move; the overall histogram keeps the
// count, the far tail and the max for the report.
type sliced struct {
	all    *hist
	slices [measureSlices]*hist
}

func newSliced() *sliced {
	s := &sliced{all: newHist()}
	for i := range s.slices {
		s.slices[i] = newHist()
	}
	return s
}

func (s *sliced) observe(slice int, v int64) {
	s.all.observe(v)
	s.slices[slice].observe(v)
}

func (s *sliced) merge(o *sliced) {
	s.all.merge(o.all)
	for i := range s.slices {
		s.slices[i].merge(o.slices[i])
	}
}

// quantile is the median over the slices that have samples of each slice's
// q-quantile, zero when there are no samples at all.
func (s *sliced) quantile(q float64) float64 {
	var qs []float64
	for _, h := range s.slices {
		if h.count() > 0 {
			qs = append(qs, float64(h.quantile(q)))
		}
	}
	if len(qs) == 0 {
		return 0
	}
	return median(qs)
}
