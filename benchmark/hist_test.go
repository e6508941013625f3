package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank quantile of a sorted sample.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHist()
	var vals []int64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over nanoseconds to minutes, the range latencies span.
		v := int64(math.Exp(rng.Float64() * math.Log(60e9)))
		vals = append(vals, v)
		h.observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if h.count() != int64(len(vals)) || h.maxValue() != vals[len(vals)-1] {
		t.Fatalf("count/max = %d/%d, want exactly %d/%d", h.count(), h.maxValue(), len(vals), vals[len(vals)-1])
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		got, want := h.quantile(q), exactQuantile(vals, q)
		if got < want || float64(got-want) > 0.01*float64(want) {
			t.Errorf("quantile(%v) = %d, exact %d: off by %.3f%%, want within +1%%", q, got, want,
				100*float64(got-want)/float64(want))
		}
	}
}

func TestHistSmallValuesAreExact(t *testing.T) {
	h := newHist()
	for v := int64(0); v < subBuckets; v++ {
		h.observe(v)
	}
	for v := int64(0); v < subBuckets; v++ {
		if got := h.quantile(float64(v+1) / subBuckets); got != v {
			t.Fatalf("quantile of rank %d = %d, want %d", v+1, got, v)
		}
	}
}

func TestHistBucketBoundsAreContiguous(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < 40*subBuckets; i++ {
		ub := bucketUpper(i)
		if ub <= prev {
			t.Fatalf("bucket %d upper bound %d does not exceed the previous %d", i, ub, prev)
		}
		if bucketOf(ub) != i || bucketOf(prev+1) != i {
			t.Fatalf("bucket %d = [%d, %d] but bucketOf maps its ends to %d and %d", i, prev+1, ub, bucketOf(prev+1), bucketOf(ub))
		}
		prev = ub
	}
}

func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b, both := newHist(), newHist(), newHist()
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(1e9)
		both.observe(v)
		if i%3 == 0 {
			a.observe(v)
		} else {
			b.observeN(v, 1)
		}
	}
	a.merge(b)
	if a.count() != both.count() || a.maxValue() != both.maxValue() || a.mean() != both.mean() {
		t.Fatalf("merged count/max/mean %d/%d/%v, want %d/%d/%v", a.count(), a.maxValue(), a.mean(),
			both.count(), both.maxValue(), both.mean())
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != both.quantile(q) {
			t.Errorf("merged quantile(%v) = %d, want %d", q, a.quantile(q), both.quantile(q))
		}
	}
}

func TestSlicedQuantileIsMedianOverSlices(t *testing.T) {
	s := newSliced()
	// Quiet slices and one with a stall: the stall must not move the
	// reported percentile, and must still show in the overall tail.
	for slice := 0; slice < measureSlices; slice++ {
		for i := 0; i < 1000; i++ {
			v := int64(1000 + i)
			if slice == 3 {
				v += 1_000_000
			}
			s.observe(slice, v)
		}
	}
	if got := s.quantile(0.99); got > 2100 {
		t.Errorf("sliced p99 = %v, want that of a quiet slice (about 1990)", got)
	}
	if got := s.all.quantile(0.99); got < 1_000_000 {
		t.Errorf("overall p99 = %d, want the stalled slice to show", got)
	}
}
