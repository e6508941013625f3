package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/state"
)

// timedStore decorates the snapshot store of a traced run: it times Save,
// Load and Complete, counts the bytes, and records a span per call. Instances
// save concurrently, so the totals are atomics.
type timedStore struct {
	inner  core.SnapshotStore
	clk    clock
	tr     *tracer
	parent int // span the store calls hang under
	// saveDelay is spent inside every Save; the sensitivity test sets it to
	// show that a slowdown in this layer is attributed to this layer. It is
	// spun away, not slept: the delays in question are far below what a sleep
	// can keep to.
	saveDelay time.Duration

	saveBusy, loadBusy, completeBusy atomic.Int64 // ns
	saves, savedBytes                atomic.Int64
}

func (s *timedStore) Save(cp int64, instanceID string, data []byte) error {
	t0 := s.clk.Now()
	for s.clk.Now()-t0 < s.saveDelay {
	}
	err := s.inner.Save(cp, instanceID, data)
	t1 := s.clk.Now()
	s.saveBusy.Add(int64(t1 - t0))
	s.saves.Add(1)
	s.savedBytes.Add(int64(len(data)))
	s.tr.add("store.save", s.parent, t0, t1)
	return err
}

func (s *timedStore) Load(cp int64, instanceID string) ([]byte, error) {
	t0 := s.clk.Now()
	data, err := s.inner.Load(cp, instanceID)
	t1 := s.clk.Now()
	s.loadBusy.Add(int64(t1 - t0))
	s.tr.add("store.load", s.parent, t0, t1)
	return data, err
}

func (s *timedStore) Complete(meta core.CheckpointMeta) error {
	t0 := s.clk.Now()
	err := s.inner.Complete(meta)
	t1 := s.clk.Now()
	s.completeBusy.Add(int64(t1 - t0))
	s.tr.add("store.complete", s.parent, t0, t1)
	return err
}

func (s *timedStore) Latest() (core.CheckpointMeta, bool) { return s.inner.Latest() }

func (s *timedStore) Instances(cp int64) ([]string, error) { return s.inner.Instances(cp) }

// Discard forwards the engine's clean-up of an aborted checkpoint.
func (s *timedStore) Discard(cp int64) error {
	if d, ok := s.inner.(core.DiscardableStore); ok {
		return d.Discard(cp)
	}
	return nil
}

// stateCounts is what one timed backend observed. One operator instance owns
// a backend, so plain fields suffice; the phase sums them after the job ends.
type stateCounts struct {
	gets, puts    int64
	busy          time.Duration // scaled from one timed call in timingStride
	snapshotBytes int64
	calls         int64
}

// timedBackend decorates a state backend of a traced run: it counts reads and
// writes on the map and value states the workloads use, times one call in
// timingStride, and sums snapshot sizes. Delta and file snapshots are
// forwarded to backends that offer them.
type timedBackend struct {
	state.Backend
	clk clock
	n   stateCounts
}

// timed runs one state access, timing it when its turn comes.
func (b *timedBackend) timed(f func()) {
	b.n.calls++
	if b.n.calls%timingStride != 0 {
		f()
		return
	}
	t0 := b.clk.Now()
	f()
	b.n.busy += (b.clk.Now() - t0) * timingStride
}

func (b *timedBackend) Map(name string) state.MapState {
	return &timedMap{MapState: b.Backend.Map(name), b: b}
}

func (b *timedBackend) Value(name string) state.ValueState {
	return &timedValue{ValueState: b.Backend.Value(name), b: b}
}

func (b *timedBackend) Snapshot() ([]byte, error) {
	data, err := b.Backend.Snapshot()
	b.n.snapshotBytes += int64(len(data))
	return data, err
}

// The delta-checkpoint contract, forwarded; a backend without it reports
// that it cannot produce a delta, which makes the engine take a full one.
func (b *timedBackend) SnapshotDelta(base, id int64) ([]byte, bool, error) {
	if d, ok := b.Backend.(state.DeltaBackend); ok {
		data, ok, err := d.SnapshotDelta(base, id)
		b.n.snapshotBytes += int64(len(data))
		return data, ok, err
	}
	return nil, false, nil
}

func (b *timedBackend) MarkFull(id int64) {
	if d, ok := b.Backend.(state.DeltaBackend); ok {
		d.MarkFull(id)
	}
}

func (b *timedBackend) ApplyDelta(data []byte) error {
	d, ok := b.Backend.(state.DeltaBackend)
	if !ok {
		return fmt.Errorf("benchmark: backend %T cannot replay a delta", b.Backend)
	}
	return d.ApplyDelta(data)
}

func (b *timedBackend) SetDeltaTracking(on bool) {
	if d, ok := b.Backend.(state.DeltaBackend); ok {
		d.SetDeltaTracking(on)
	}
}

// timedFileBackend adds the file-snapshot contract for backends that have it.
type timedFileBackend struct {
	*timedBackend
	files state.FileBackend
}

func (b timedFileBackend) SnapshotFiles() ([]string, error) { return b.files.SnapshotFiles() }

func (b timedFileBackend) RestoreFromFiles(paths []string) error {
	return b.files.RestoreFromFiles(paths)
}

// decorate wraps a backend for a traced run and returns the counters it
// will fill.
func decorate(inner state.Backend, clk clock) (state.Backend, *stateCounts) {
	b := &timedBackend{Backend: inner, clk: clk}
	if f, ok := inner.(state.FileBackend); ok {
		return timedFileBackend{timedBackend: b, files: f}, &b.n
	}
	return b, &b.n
}

type timedMap struct {
	state.MapState
	b *timedBackend
}

func (m *timedMap) Get(k string) (v any, ok bool) {
	m.b.n.gets++
	m.b.timed(func() { v, ok = m.MapState.Get(k) })
	return v, ok
}

func (m *timedMap) Put(k string, v any) {
	m.b.n.puts++
	m.b.timed(func() { m.MapState.Put(k, v) })
}

func (m *timedMap) Remove(k string) {
	m.b.n.puts++
	m.b.timed(func() { m.MapState.Remove(k) })
}

type timedValue struct {
	state.ValueState
	b *timedBackend
}

func (s *timedValue) Get() (v any, ok bool) {
	s.b.n.gets++
	s.b.timed(func() { v, ok = s.ValueState.Get() })
	return v, ok
}

func (s *timedValue) Set(v any) {
	s.b.n.puts++
	s.b.timed(func() { s.ValueState.Set(v) })
}

var (
	_ core.SnapshotStore    = (*timedStore)(nil)
	_ core.DiscardableStore = (*timedStore)(nil)
	_ state.DeltaBackend    = (*timedBackend)(nil)
	_ state.FileBackend     = timedFileBackend{}
)
