package core

import (
	"bytes"
	"cmp"
	"container/heap"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// timerEntry is one registered event-time timer.
type timerEntry struct {
	TS  int64
	Key string
}

// timerService maintains per-instance event-time timers, fired in (TS, Key)
// order as the watermark advances. Timers are bucketed by timestamp: a
// min-heap orders the distinct timestamps and each bucket holds the keys due
// then, so registering compares no strings and firing a timestamp sorts its
// keys once. Duplicate (ts, key) registrations coalesce. The service is
// snapshotted into checkpoints.
type timerService struct {
	order   tsHeap // the timestamps that have a bucket
	buckets map[int64]map[string]struct{}
	live    int // timers in buckets
	// fired holds the buckets due has popped since the last endAdvance. A
	// callback re-registering one of them — its own (ts, key), say — is
	// dropped instead of firing again in the same watermark advance, which
	// would loop forever at a fixed watermark.
	fired map[int64]map[string]struct{}
	// free keeps a few emptied buckets for the next timestamps, so steady
	// window firing does not allocate and regrow a key set per window: that
	// garbage showed up as a higher peak RSS.
	free []map[string]struct{}
	// scratch backs the slice due returns; each due call reuses it, so the
	// previous result must be fully consumed before the next call (the
	// watermark-advance loop does exactly that).
	scratch []timerEntry
	sorted  []string // the keys of the bucket due sorted last, in order
}

// maxFreeBuckets bounds timerService.free.
const maxFreeBuckets = 4

func newTimerService() *timerService {
	return &timerService{
		buckets: make(map[int64]map[string]struct{}),
		fired:   make(map[int64]map[string]struct{}),
	}
}

// register adds a timer; duplicates, and timers already popped in the
// current watermark advance, are ignored.
func (t *timerService) register(ts int64, key string) {
	if len(t.fired) > 0 {
		if _, ok := t.fired[ts][key]; ok {
			return
		}
	}
	b := t.buckets[ts]
	if b == nil {
		if n := len(t.free); n > 0 {
			b, t.free = t.free[n-1], t.free[:n-1]
		} else {
			b = make(map[string]struct{})
		}
		t.buckets[ts] = b
		heap.Push(&t.order, ts)
	}
	n := len(b)
	b[key] = struct{}{}
	t.live += len(b) - n
}

// unregister deletes a timer. An emptied bucket stays until due pops it.
func (t *timerService) unregister(ts int64, key string) {
	if b := t.buckets[ts]; b != nil {
		n := len(b)
		delete(b, key)
		t.live -= n - len(b)
	}
}

// due pops every bucket with TS <= wm and returns its timers in (TS, Key)
// order.
func (t *timerService) due(wm int64) []timerEntry {
	out := t.scratch[:0]
	for len(t.order) > 0 && t.order[0] <= wm {
		ts := heap.Pop(&t.order).(int64)
		b := t.buckets[ts]
		delete(t.buckets, ts)
		t.live -= len(b)
		for _, k := range t.sortKeys(b) {
			out = append(out, timerEntry{TS: ts, Key: k})
		}
		if f := t.fired[ts]; f != nil {
			maps.Copy(f, b) // a second bucket for ts, registered in this advance
		} else {
			t.fired[ts] = b
		}
	}
	t.scratch = out
	return out
}

// sortKeys returns a bucket's keys in order. A keyed window fires the same
// keys window after window, so a bucket holding exactly the keys sorted last
// time reuses that order instead of sorting again.
func (t *timerService) sortKeys(b map[string]struct{}) []string {
	missing := func(k string) bool { _, ok := b[k]; return !ok }
	if len(b) == len(t.sorted) && !slices.ContainsFunc(t.sorted, missing) {
		return t.sorted
	}
	keys := t.sorted[:0]
	for k := range b {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	t.sorted = keys
	return keys
}

// endAdvance ends a watermark advance: timers it fired may be registered
// again, and their buckets are kept for reuse.
func (t *timerService) endAdvance() {
	for ts, b := range t.fired {
		delete(t.fired, ts)
		if len(t.free) < maxFreeBuckets {
			clear(b)
			t.free = append(t.free, b)
		}
	}
}

// tsHeap is a min-heap of distinct timestamps. container/heap boxes each
// int64 through any, once per timestamp rather than once per timer.
type tsHeap []int64

func (h tsHeap) Len() int           { return len(h) }
func (h tsHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h tsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tsHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *tsHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// forEach calls fn for every live timer, in unspecified order.
func (t *timerService) forEach(fn func(e timerEntry)) {
	for ts, b := range t.buckets {
		for k := range b {
			fn(timerEntry{TS: ts, Key: k})
		}
	}
}

// pending returns the number of live timers.
func (t *timerService) pending() int { return t.live }

// snapshot serialises the live timers in (TS, Key) order, so two snapshots
// of the same timers are byte-identical whatever the map iteration order.
func (t *timerService) snapshot() ([]byte, error) {
	entries := make([]timerEntry, 0, t.live)
	t.forEach(func(e timerEntry) { entries = append(entries, e) })
	slices.SortFunc(entries, func(x, y timerEntry) int {
		if c := cmp.Compare(x.TS, y.TS); c != 0 {
			return c
		}
		return strings.Compare(x.Key, y.Key)
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("core: snapshot timers: %w", err)
	}
	return buf.Bytes(), nil
}

// restore replaces the live timers from a snapshot.
func (t *timerService) restore(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var entries []timerEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return fmt.Errorf("core: restore timers: %w", err)
	}
	*t = *newTimerService()
	for _, e := range entries {
		t.register(e.TS, e.Key)
	}
	return nil
}
