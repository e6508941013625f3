package state_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/window"
)

// TestLSMWindowStateStaysBounded opens and closes distinct (key, window)
// pairs through the window operator on the LSM backend: what the backend
// holds, and what a snapshot of it weighs, must follow the windows open at
// the time and not the number of keys ever seen — closing a window really
// deletes its entry. (The blob-per-key layout left an empty map behind for
// every key, so both numbers grew with the stream.)
func TestLSMWindowStateStaysBounded(t *testing.T) {
	// Pair i is key k<i> at event time 10*i ms in a 10 ms tumbling window:
	// every record opens a window of its own, and the watermark closes it a
	// few records later.
	run := func(pairs int) (live, snapshotBytes int, saves []int) {
		events := make([]core.Event, pairs)
		for i := range events {
			events[i] = core.Event{Key: fmt.Sprintf("k%d", i), Timestamp: int64(10 * i), Value: 1.0}
		}
		var backend *state.LSMBackend
		store := core.NewMemorySnapshotStore()
		b := core.NewBuilder(core.Config{
			Name: "growth", DefaultParallelism: 1, SnapshotStore: store, CheckpointEvery: 1000,
			BackendFactory: func(node string, _ int) (state.Backend, error) {
				if node != "window" {
					return state.NewMemoryBackend(0), nil
				}
				var err error
				backend, err = state.NewLSMBackend(t.TempDir(), 0)
				return backend, err
			},
		})
		src := b.Source("src", core.NewSliceSourceFactory(events), core.WithBoundedDisorder(0))
		sink := core.NewCollectSink()
		window.Apply(src.KeyBy(func(e core.Event) string { return e.Key }), "window", window.NewTumbling(10),
			window.FloatAggregate(window.Sum, func(e core.Event) float64 { return e.Value.(float64) })).
			Sink("sink", sink.Factory())
		job, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if sink.Len() != pairs {
			t.Fatalf("%d pairs gave %d window results", pairs, sink.Len())
		}
		defer backend.Dispose()
		for cp := int64(1); ; cp++ {
			data, err := store.Load(cp, "window-0")
			if err != nil {
				break
			}
			saves = append(saves, len(data))
		}
		snap, err := backend.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Tree().Scan(nil, nil, func(k, v []byte) bool { live++; return true }); err != nil {
			t.Fatal(err)
		}
		return live, len(snap), saves
	}

	liveSmall, snapSmall, _ := run(1000)
	liveLarge, snapLarge, saves := run(50000)
	if liveLarge > 2*liveSmall || snapLarge > 2*snapSmall {
		t.Fatalf("state grew with the keys seen: %d live entries and a %d-byte snapshot after 50000 pairs, %d and %d after 1000",
			liveLarge, snapLarge, liveSmall, snapSmall)
	}
	// And while the stream runs: the window instance's part of the late
	// checkpoints weighs what its part of the early ones did. (A single
	// checkpoint's size follows how many windows the barrier found open, a
	// few dozen at most, so tenths of the run are compared, not two samples.)
	if len(saves) < 40 {
		t.Fatalf("want a checkpoint per 1000 records, got %d", len(saves))
	}
	mean := func(xs []int) (m int) {
		for _, x := range xs {
			m += x
		}
		return m / len(xs)
	}
	if early, late := mean(saves[:10]), mean(saves[len(saves)-10:]); late > 2*early {
		t.Fatalf("checkpoints grew with the keys seen: %d bytes on average at first, %d at last", early, late)
	}
}
