package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/state"
)

// skewedEvents builds a two-phase stream: the first fill events spread over
// spread keys (building a wide state), the rest hammer only hot keys. Late
// checkpoints therefore see a small change set against a large total state —
// the regime where delta checkpoints must win.
func skewedEvents(fill, hammer, spread, hot int) []Event {
	evs := make([]Event, 0, fill+hammer)
	for i := 0; i < fill; i++ {
		evs = append(evs, Event{Key: fmt.Sprintf("k%04d", i%spread), Timestamp: int64(i * 10), Value: int64(1)})
	}
	for i := 0; i < hammer; i++ {
		evs = append(evs, Event{Key: fmt.Sprintf("k%04d", i%hot), Timestamp: int64((fill + i) * 10), Value: int64(1)})
	}
	return evs
}

// countPayloadBytes sums the stored payload bytes of checkpoint cp's count
// instances.
func countPayloadBytes(t *testing.T, s SnapshotStore, cp int64) int {
	t.Helper()
	ids, err := s.Instances(cp)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, id := range ids {
		if !strings.HasPrefix(id, "count-") {
			continue
		}
		data, err := s.Load(cp, id)
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
	}
	return total
}

func TestDeltaCheckpointsEndToEnd(t *testing.T) {
	// Run a keyed count with delta checkpoints over a skewed stream, then
	// restore a second job from the newest *delta* checkpoint: recovery must
	// replay the full image plus the delta chain and still produce the exact
	// total. Also asserts the deltas are measurably smaller than fulls.
	const n = 1200
	events := skewedEvents(800, 400, 400, 3)
	store := NewMemorySnapshotStore()

	build := func(sink *CollectSink, jobRef **Job) *Job {
		b := NewBuilder(Config{
			Name:             "delta",
			SnapshotStore:    store,
			DeltaCheckpoints: true,
		})
		b.Source("src", triggerAfter(NewSliceSourceFactory(events), 100, false, jobRef)).
			KeyBy(func(e Event) string { return e.Key }).
			Process("count", func() Operator { return &countOperator{} }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	var j1 *Job
	sink1 := NewCollectSink()
	j1 = build(sink1, &j1)
	runJob(t, j1)

	metas := store.Completed()
	var newestDelta, newestFull CheckpointMeta
	for _, m := range metas {
		if m.Parent != 0 {
			if m.ID > newestDelta.ID {
				newestDelta = m
			}
		} else if m.ID > newestFull.ID {
			newestFull = m
		}
	}
	if newestDelta.ID == 0 {
		t.Fatalf("no delta checkpoint completed (metas: %+v)", metas)
	}
	if newestFull.ID == 0 {
		t.Fatalf("no full checkpoint completed (metas: %+v)", metas)
	}

	// The smallest delta (hammer phase: ~3 touched keys vs 400 total) must be
	// well under the full image.
	minDelta := -1
	for _, m := range metas {
		if m.Parent == 0 {
			continue
		}
		if b := countPayloadBytes(t, store, m.ID); minDelta < 0 || b < minDelta {
			minDelta = b
		}
	}
	fullBytes := countPayloadBytes(t, store, newestFull.ID)
	if minDelta*3 >= fullBytes {
		t.Fatalf("delta checkpoints not sublinear: smallest delta %dB vs full %dB", minDelta, fullBytes)
	}

	// Restore from the newest delta: the runtime must resolve and replay the
	// whole parent chain.
	var j2 *Job
	sink2 := NewCollectSink()
	j2 = build(sink2, &j2)
	j2.RestoreFrom(newestDelta.ID)
	runJob(t, j2)

	total := int64(0)
	for _, e := range sink2.Events() {
		total += e.Value.(int64)
	}
	if total != n {
		t.Fatalf("restored from delta chain: want total %d, got %d", n, total)
	}
}

func TestFullSnapshotCadenceBoundsChain(t *testing.T) {
	// FullSnapshotEvery must cap the delta chain: walking any completed
	// checkpoint's parent lineage reaches a full within FullSnapshotEvery
	// links.
	const every = 3
	store := NewMemorySnapshotStore()
	sink := NewCollectSink()
	var jobRef *Job
	b := NewBuilder(Config{
		Name:              "cadence",
		SnapshotStore:     store,
		DeltaCheckpoints:  true,
		FullSnapshotEvery: every,
	})
	b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(600, 4)), 40, false, &jobRef)).
		KeyBy(func(e Event) string { return e.Key }).
		Process("count", func() Operator { return &countOperator{} }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jobRef = j
	runJob(t, j)

	metas := store.Completed()
	byID := make(map[int64]CheckpointMeta, len(metas))
	sawDelta := false
	for _, m := range metas {
		byID[m.ID] = m
		if m.Parent != 0 {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Fatalf("no delta checkpoints taken (metas: %+v)", metas)
	}
	for _, m := range metas {
		links := 0
		for cur := m; cur.Parent != 0; links++ {
			if links >= every {
				t.Fatalf("checkpoint %d has a delta chain longer than FullSnapshotEvery=%d", m.ID, every)
			}
			next, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("checkpoint %d references unknown parent %d", cur.ID, cur.Parent)
			}
			cur = next
		}
	}
}

func TestLSMNativeSnapshotsRestore(t *testing.T) {
	// LSM-native checkpoints reference the backend's immutable SSTables,
	// hard-linked into the file store. A second job with *fresh* backend
	// directories must recover purely from the linked files.
	const n = 600
	dir := t.TempDir()
	store, err := NewFileSnapshotStore(filepath.Join(dir, "chk"))
	if err != nil {
		t.Fatal(err)
	}

	build := func(gen string, sink *CollectSink, jobRef **Job) *Job {
		b := NewBuilder(Config{
			Name:          "lsm-native",
			SnapshotStore: store,
			BackendFactory: func(nodeName string, instance int) (state.Backend, error) {
				return state.NewLSMBackend(filepath.Join(dir, gen, fmt.Sprintf("%s-%d", nodeName, instance)), 0)
			},
			LSMNativeSnapshots: true,
		})
		b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(n, 7)), 100, false, jobRef)).
			KeyBy(func(e Event) string { return e.Key }).
			Process("count", func() Operator { return &countOperator{} }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	var j1 *Job
	sink1 := NewCollectSink()
	j1 = build("gen1", sink1, &j1)
	runJob(t, j1)
	meta, ok := store.Latest()
	if !ok {
		t.Fatal("no restorable checkpoint")
	}
	if len(meta.Files) == 0 {
		t.Fatalf("native checkpoint %d recorded no linked files", meta.ID)
	}
	for _, name := range meta.Files {
		if _, err := store.LinkedPath(meta.ID, name); err != nil {
			t.Fatalf("linked file unresolvable: %v", err)
		}
	}

	var j2 *Job
	sink2 := NewCollectSink()
	j2 = build("gen2", sink2, &j2)
	j2.RestoreFrom(meta.ID)
	runJob(t, j2)

	total := int64(0)
	for _, e := range sink2.Events() {
		total += e.Value.(int64)
	}
	if total != n {
		t.Fatalf("restored from linked SSTables: want total %d, got %d", n, total)
	}
}

func TestLSMNativeFallsBackToEmbeddedFiles(t *testing.T) {
	// With a store that cannot link local files (MemorySnapshotStore), the
	// file-native path embeds the SSTable bytes in the payload; recovery
	// materialises them in a scratch dir and adopts them.
	const n = 400
	dir := t.TempDir()
	store := NewMemorySnapshotStore()

	build := func(gen string, sink *CollectSink) *Job {
		b := NewBuilder(Config{
			Name:            "lsm-embed",
			SnapshotStore:   store,
			CheckpointEvery: 80,
			ChannelCapacity: 4,
			BackendFactory: func(nodeName string, instance int) (state.Backend, error) {
				return state.NewLSMBackend(filepath.Join(dir, gen, fmt.Sprintf("%s-%d", nodeName, instance)), 0)
			},
			LSMNativeSnapshots: true,
		})
		b.Source("src", NewSliceSourceFactory(genEvents(n, 5))).
			KeyBy(func(e Event) string { return e.Key }).
			Process("count", func() Operator { return &countOperator{} }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	sink1 := NewCollectSink()
	j1 := build("gen1", sink1)
	runJob(t, j1)
	cp := j1.LastCheckpoint()
	if cp < 0 {
		t.Fatal("no checkpoint completed")
	}
	if meta, _ := store.Latest(); len(meta.Files) != 0 {
		t.Fatalf("non-linking store must not record linked files, got %v", meta.Files)
	}

	sink2 := NewCollectSink()
	j2 := build("gen2", sink2)
	j2.RestoreFrom(cp)
	runJob(t, j2)

	total := int64(0)
	for _, e := range sink2.Events() {
		total += e.Value.(int64)
	}
	if total != n {
		t.Fatalf("restored from embedded files: want total %d, got %d", n, total)
	}
}

func TestDeltaChainOnNativeFullRestore(t *testing.T) {
	// The richest recovery path: fulls are file-native (linked SSTables),
	// deltas ride on top of them. Restoring the chain head must adopt the
	// linked files, then replay each delta.
	const n = 1000
	dir := t.TempDir()
	store, err := NewFileSnapshotStore(filepath.Join(dir, "chk"))
	if err != nil {
		t.Fatal(err)
	}

	build := func(gen string, sink *CollectSink, jobRef **Job) *Job {
		b := NewBuilder(Config{
			Name:          "lsm-delta",
			SnapshotStore: store,
			BackendFactory: func(nodeName string, instance int) (state.Backend, error) {
				return state.NewLSMBackend(filepath.Join(dir, gen, fmt.Sprintf("%s-%d", nodeName, instance)), 0)
			},
			DeltaCheckpoints:   true,
			FullSnapshotEvery:  4,
			LSMNativeSnapshots: true,
		})
		b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(n, 9)), 80, false, jobRef)).
			KeyBy(func(e Event) string { return e.Key }).
			Process("count", func() Operator { return &countOperator{} }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	var j1 *Job
	sink1 := NewCollectSink()
	j1 = build("gen1", sink1, &j1)
	runJob(t, j1)

	newest, ok := store.Latest()
	if !ok {
		t.Fatal("no restorable checkpoint")
	}
	if newest.Parent == 0 {
		t.Skip("newest checkpoint is a full in this run; delta-on-native not exercised")
	}

	var j2 *Job
	sink2 := NewCollectSink()
	j2 = build("gen2", sink2, &j2)
	j2.RestoreFrom(newest.ID)
	runJob(t, j2)

	total := int64(0)
	for _, e := range sink2.Events() {
		total += e.Value.(int64)
	}
	if total != n {
		t.Fatalf("restored delta-on-native chain: want total %d, got %d", n, total)
	}
}

func TestRescaleRejectsDeltaCheckpoint(t *testing.T) {
	// Rescaling redistributes a full serialized image; a delta checkpoint
	// must be rejected with a clear error, not silently mis-redistributed.
	store := NewMemorySnapshotStore()
	sink := NewCollectSink()
	var jobRef *Job
	b := NewBuilder(Config{
		Name:             "rescale-delta",
		SnapshotStore:    store,
		DeltaCheckpoints: true,
	})
	b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(600, 6)), 60, false, &jobRef)).
		KeyBy(func(e Event) string { return e.Key }).
		ProcessWith("count", func() Operator { return &countOperator{} }, 2).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jobRef = j
	runJob(t, j)

	var delta CheckpointMeta
	for _, m := range store.Completed() {
		if m.Parent != 0 && m.ID > delta.ID {
			delta = m
		}
	}
	if delta.ID == 0 {
		t.Fatalf("no delta checkpoint completed (metas: %+v)", store.Completed())
	}
	if _, err := RescaleCheckpoint(store, delta.ID, delta.ID+100, "count", 4, state.DefaultKeyGroups); err == nil {
		t.Fatal("rescaling a delta checkpoint must fail")
	} else if !strings.Contains(err.Error(), "savepoint") {
		t.Fatalf("rescale error should point at savepoints, got: %v", err)
	}
}
