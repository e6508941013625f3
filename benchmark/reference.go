package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// verdict is the outcome of checking one output against the reference. One
// operation is one expected result; it fails when the result is missing,
// arrives more than once, or carries the wrong value. A result nothing
// accounts for fails too. A result an earlier incarnation already delivered,
// delivered again with the same value by a job restored from a checkpoint, is
// the engine's documented replay and counts as replayed, not as failed.
type verdict struct {
	attempted, failed                       int64
	missing, duplicated, wrong, unaccounted int64
	replayed                                int64
}

func (v *verdict) add(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.missing += o.missing
	v.duplicated += o.duplicated
	v.wrong += o.wrong
	v.unaccounted += o.unaccounted
	v.replayed += o.replayed
}

func (v verdict) String() string {
	return fmt.Sprintf("attempted=%d failed=%d (missing=%d duplicated=%d wrong=%d unaccounted=%d) replayed=%d",
		v.attempted, v.failed, v.missing, v.duplicated, v.wrong, v.unaccounted, v.replayed)
}

// result is one window result as the sink observed it.
type result struct {
	key string
	end int64         // window end, event-time ms
	sum float64       // the aggregate
	at  time.Duration // clock time of observation
	run int32         // incarnation that delivered it
}

// resultLog keeps results in fixed-size blocks, so that logging millions of
// them never copies what is already logged (a doubling slice would make the
// process's peak memory depend on where the last doubling fell).
type resultLog struct {
	blocks [][]result
	n      int
}

const resultBlock = 1 << 16

func (l *resultLog) add(r result) {
	if l.n%resultBlock == 0 {
		l.blocks = append(l.blocks, make([]result, 0, resultBlock))
	}
	b := &l.blocks[len(l.blocks)-1]
	*b = append(*b, r)
	l.n++
}

func (l *resultLog) at(i int) *result { return &l.blocks[i/resultBlock][i%resultBlock] }

// foldWindows is the single-threaded reference: it folds records
// [0, admitted) of the ring into tumbling windows of windowMs and calls visit
// once per window, in order, with the per-key sums and the keys that occur.
// Both slices are reused between calls.
func foldWindows(r *ring, windowMs, admitted int64, visit func(end int64, sums []float64, touched []uint32)) {
	sums := make([]float64, len(r.keys))
	stamp := make([]int64, len(r.keys)) // window (1-based) that last touched the key
	var touched []uint32
	size := int64(len(r.events))
	perWindow := windowMs * recordsPerMs
	for from := int64(0); from < admitted; from += perWindow {
		to := from + perWindow
		if to > admitted {
			to = admitted
		}
		w := from/perWindow + 1
		touched = touched[:0]
		slot := from % size
		for i := from; i < to; i++ {
			k := r.keyIdx[slot]
			if stamp[k] != w {
				stamp[k], sums[k] = w, 0
				touched = append(touched, k)
			}
			sums[k] += r.events[slot].Value.(*payload).v
			if slot++; slot == size {
				slot = 0
			}
		}
		visit(w*windowMs, sums, touched)
	}
}

// checkWindows compares the results a windowed workload delivered with the
// reference fold over exactly the records admitted. first, when not nil, is
// called with the index of every result that is the first correct delivery
// of an expected result, so latency is sampled once per operation.
func checkWindows(r *ring, windowMs, admitted int64, results *resultLog, first func(i int)) verdict {
	byEnd := make(map[int64][]int32)
	for i := 0; i < results.n; i++ {
		end := results.at(i).end
		byEnd[end] = append(byEnd[end], int32(i))
	}
	var v verdict
	expected := make([]bool, len(r.keys))
	gotRun := make([]int32, len(r.keys)) // 1 + incarnation of the accepted delivery
	foldWindows(r, windowMs, admitted, func(end int64, sums []float64, touched []uint32) {
		for _, k := range touched {
			expected[k], gotRun[k] = true, 0
		}
		v.attempted += int64(len(touched))
		for _, i := range byEnd[end] {
			res := results.at(int(i))
			k, ok := keyNumber(res.key)
			switch {
			case !ok || k >= len(expected) || !expected[k]:
				v.unaccounted++
			case res.sum != sums[k]:
				v.wrong++
				if gotRun[k] == 0 {
					gotRun[k] = res.run + 1 // delivered, if wrongly: not also missing
				}
			case gotRun[k] == 0:
				gotRun[k] = res.run + 1
				if first != nil {
					first(int(i))
				}
			case gotRun[k] != res.run+1:
				v.replayed++
			default:
				v.duplicated++
			}
		}
		delete(byEnd, end)
		for _, k := range touched {
			if gotRun[k] == 0 {
				v.missing++
			}
			expected[k] = false
		}
	})
	for _, idx := range byEnd {
		v.unaccounted += int64(len(idx))
	}
	v.failed = v.missing + v.duplicated + v.wrong + v.unaccounted
	return v
}

// bitset records which record indices a consumer has seen.
type bitset []uint64

// set marks i and reports whether it was already marked.
func (b *bitset) set(i int64) bool {
	w := int(i >> 6)
	for w >= len(*b) {
		*b = append(*b, make([]uint64, len(*b)+1024)...)
	}
	mask := uint64(1) << uint(i&63)
	was := (*b)[w]&mask != 0
	(*b)[w] |= mask
	return was
}

func (b bitset) has(i int64) bool {
	w := int(i >> 6)
	return w < len(b) && b[w]&(uint64(1)<<uint(i&63)) != 0
}

// recordCheck verifies a feed of raw records by index: every record index in
// [0, admitted) that want accepts must arrive exactly once, carrying the key
// and value the ring holds for it. It is the reference for outputs that are
// one record per input record (stateless-hops' sink, serve-fanout's raw and
// filtered subscriptions).
type recordCheck struct {
	ring *ring
	want func(r *ring, idx int64) bool
	seen bitset
	bad  verdict
}

// observe checks one delivered record.
func (c *recordCheck) observe(idx int64, key string, v float64) {
	switch {
	case idx < 0 || !c.want(c.ring, idx):
		c.bad.unaccounted++
	case key != c.ring.key(idx) || v != c.ring.value(idx):
		c.bad.wrong++
		c.seen.set(idx)
	case c.seen.set(idx):
		c.bad.duplicated++
	}
}

// finish counts what never arrived, given how many records were admitted.
func (c *recordCheck) finish(admitted int64) verdict {
	v := c.bad
	for idx := int64(0); idx < admitted; idx++ {
		if !c.want(c.ring, idx) {
			continue
		}
		v.attempted++
		if !c.seen.has(idx) {
			v.missing++
		}
	}
	// An index beyond what was admitted cannot have been delivered honestly.
	for w := int(admitted>>6) + 1; w < len(c.seen); w++ {
		if c.seen[w] != 0 {
			v.unaccounted++
		}
	}
	v.failed = v.missing + v.duplicated + v.wrong + v.unaccounted
	return v
}

// The predicates of the record feeds.
func wantAll(*ring, int64) bool { return true }

// passesFilter is stateless-hops' filter: nine records in ten.
func passesFilter(_ *ring, idx int64) bool { return idx%10 != 0 }

// isLarge is serve-fanout's WHERE clause, v > 900: about one record in ten.
func isLarge(r *ring, idx int64) bool { return r.value(idx) > largeValue }

const largeValue = 900

// eventIndex rebuilds the record index a pipeline event carries.
func eventIndex(r *ring, e core.Event) (int64, *payload) {
	p, ok := e.Value.(*payload)
	if !ok {
		return -1, nil
	}
	return r.index(e.Timestamp, p.slot), p
}
