package ha

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/window"
)

// factory builds identical pass-through jobs over n unique events.
func factory(n int) JobFactory {
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{Key: fmt.Sprintf("k%d", i%5), Timestamp: int64(i), Value: int64(i)}
	}
	return func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		b := core.NewBuilder(core.Config{
			Name:            "ha-job",
			SnapshotStore:   store,
			CheckpointEvery: 40,
			ChannelCapacity: 4,
		})
		b.Source("src", core.NewSliceSourceFactory(events)).
			Map("id", func(e core.Event) (core.Event, bool) { return e, true }).
			Sink("out", sink.Factory())
		return b.Build()
	}
}

func TestActiveStandbyDeliversEverythingOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 500
	out, rep, err := RunActiveStandby(ctx, factory(n), 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("active standby output: want %d distinct, got %d", n, len(out))
	}
	if rep.ResourceUnits != 2 {
		t.Fatalf("active standby should cost 2x resources, got %d", rep.ResourceUnits)
	}
	if rep.Duplicates == 0 {
		t.Fatal("active standby should have suppressed duplicate outputs from the pair")
	}
}

func TestPassiveStandbyRecoversFromCheckpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 500
	store := core.NewMemorySnapshotStore()
	out, rep, err := RunPassiveStandby(ctx, factory(n), store, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("passive standby output: want %d distinct, got %d", n, len(out))
	}
	if rep.ResourceUnits != 1 {
		t.Fatalf("passive standby steady-state cost should be 1x, got %d", rep.ResourceUnits)
	}
	// Replay length is bounded by the checkpoint interval (40 events per
	// source) plus in-flight buffering, and is strictly less than a full
	// replay.
	if rep.ReplayedEvents >= n {
		t.Fatalf("passive standby replayed the whole stream: %d", rep.ReplayedEvents)
	}
}

func TestPassiveStandbyWithoutCheckpointFails(t *testing.T) {
	ctx := context.Background()
	store := core.NewMemorySnapshotStore()
	// Kill immediately; no checkpoint has completed yet with a huge
	// interval.
	fac := func(sink *core.CollectSink, st core.SnapshotStore) (*core.Job, error) {
		b := core.NewBuilder(core.Config{Name: "nochk", SnapshotStore: st})
		b.Source("src", core.NewSliceSourceFactory([]core.Event{{Timestamp: 1}})).
			Sink("out", sink.Factory())
		return b.Build()
	}
	if _, _, err := RunPassiveStandby(ctx, fac, store, 1); err == nil {
		t.Fatal("recovery without checkpoints should fail")
	}
}

func TestDedupCountsDuplicates(t *testing.T) {
	a := []core.Event{{Key: "k", Timestamp: 1}, {Key: "k", Timestamp: 2}}
	b := []core.Event{{Key: "k", Timestamp: 2}, {Key: "k", Timestamp: 3}}
	out, dups := Dedup(a, b)
	if len(out) != 3 || dups != 1 {
		t.Fatalf("dedup: got %d events, %d dups", len(out), dups)
	}
}

func TestActiveStandbyPrimaryFinishesBeforeKill(t *testing.T) {
	// killAfter beyond the stream length: the primary completes naturally;
	// failover still yields exactly-once output.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 100
	out, rep, err := RunActiveStandby(ctx, factory(n), n*10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("want %d distinct outputs, got %d", n, len(out))
	}
	if rep.Output != n {
		t.Fatalf("report output: %d", rep.Output)
	}
}

func TestPassiveStandbyNoReplayReportsUnmeasuredRecovery(t *testing.T) {
	// A pipeline that drops everything: the standby restores, replays, and
	// legitimately produces no output at all. That must not be reported as a
	// (huge) recovery time — the report flags recovery as unmeasured.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events := make([]core.Event, 200)
	for i := range events {
		events[i] = core.Event{Key: "k", Timestamp: int64(i)}
	}
	fac := func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		b := core.NewBuilder(core.Config{
			Name:            "silent",
			SnapshotStore:   store,
			CheckpointEvery: 20,
			ChannelCapacity: 4, // backpressure the source so checkpoints land mid-stream
		})
		b.Source("src", core.NewSliceSourceFactory(events)).
			Map("slow", func(e core.Event) (core.Event, bool) {
				time.Sleep(50 * time.Microsecond) // give checkpoints time to complete
				return e, true
			}).
			Filter("drop", func(core.Event) bool { return false }).
			Sink("out", sink.Factory())
		return b.Build()
	}
	store := core.NewMemorySnapshotStore()
	out, rep, err := RunPassiveStandby(ctx, fac, store, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("drop-all pipeline produced output: %d", len(out))
	}
	if rep.RecoveryMeasured {
		t.Fatalf("no post-failure output, yet recovery reported as measured: %+v", rep)
	}
	if rep.RecoveryMillis != 0 {
		t.Fatalf("unmeasured recovery should not carry a duration: %d", rep.RecoveryMillis)
	}
}

func TestPassiveStandbyWithOutputMeasuresRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	store := core.NewMemorySnapshotStore()
	_, rep, err := RunPassiveStandby(ctx, factory(500), store, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RecoveryMeasured {
		t.Fatalf("standby replayed output but recovery unmeasured: %+v", rep)
	}
}

// flakyOp fails the job once after `failAt` elements, then behaves as a
// pass-through forever. The shared fired flag makes restarts run clean.
type flakyOp struct {
	core.BaseOperator
	seen   *int64
	failAt int64
	fired  *int32
}

func (f *flakyOp) ProcessElement(e core.Event, ctx core.Context) error {
	n := atomic.AddInt64(f.seen, 1)
	if n >= f.failAt && atomic.CompareAndSwapInt32(f.fired, 0, 1) {
		return fmt.Errorf("injected operator failure at element %d", n)
	}
	ctx.Emit(e)
	return nil
}

func flakyFactory(n int, failAt int64) (JobFactory, *int32) {
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{Key: fmt.Sprintf("k%d", i%5), Timestamp: int64(i), Value: int64(i)}
	}
	fired := new(int32)
	fac := func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		seen := new(int64)
		b := core.NewBuilder(core.Config{
			Name:            "supervised",
			SnapshotStore:   store,
			CheckpointEvery: 40,
			ChannelCapacity: 4,
		})
		b.Source("src", core.NewSliceSourceFactory(events)).
			Process("flaky", func() core.Operator {
				return &flakyOp{seen: seen, failAt: failAt, fired: fired}
			}).
			Sink("out", sink.Factory())
		return b.Build()
	}
	return fac, fired
}

func TestRunSupervisedRestartsFromCheckpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 500
	fac, _ := flakyFactory(n, 250)
	store := core.NewMemorySnapshotStore()
	out, rep, err := RunSupervised(ctx, fac, store, RestartStrategy{MaxRestarts: 3, Delay: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("supervised run lost/duplicated output: want %d distinct, got %d", n, len(out))
	}
	if rep.Attempts != 2 || rep.Restarts != 1 {
		t.Fatalf("want exactly one restart, got %+v", rep)
	}
	if len(rep.RecoveredFrom) != 2 || rep.RecoveredFrom[0] != -1 || rep.RecoveredFrom[1] < 0 {
		t.Fatalf("restart should resume from a completed checkpoint: %v", rep.RecoveredFrom)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures: %v", rep.Failures)
	}
}

func TestRunSupervisedGivesUpAfterBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events := []core.Event{{Key: "k", Timestamp: 1}}
	fac := func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		b := core.NewBuilder(core.Config{Name: "doomed", SnapshotStore: store})
		b.Source("src", core.NewSliceSourceFactory(events)).
			Process("fail", core.MapFunc(func(core.Event, core.Context) error {
				return fmt.Errorf("always fails")
			})).
			Sink("out", sink.Factory())
		return b.Build()
	}
	store := core.NewMemorySnapshotStore()
	_, rep, err := RunSupervised(ctx, fac, store, RestartStrategy{MaxRestarts: 2, Delay: time.Millisecond}, nil)
	if err == nil {
		t.Fatal("a permanently failing job must exhaust its restart budget")
	}
	if rep.Attempts != 3 {
		t.Fatalf("MaxRestarts=2 should allow 3 attempts, got %d", rep.Attempts)
	}
}

func TestRunSupervisedRecoversFromPanic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 400
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{Key: fmt.Sprintf("k%d", i%3), Timestamp: int64(i), Value: int64(i)}
	}
	var fired int32
	fac := func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		seen := new(int64)
		b := core.NewBuilder(core.Config{
			Name:            "panicky",
			SnapshotStore:   store,
			CheckpointEvery: 30,
			ChannelCapacity: 4,
		})
		b.Source("src", core.NewSliceSourceFactory(events)).
			Process("boom", core.MapFunc(func(e core.Event, ctx core.Context) error {
				if atomic.AddInt64(seen, 1) >= 180 && atomic.CompareAndSwapInt32(&fired, 0, 1) {
					panic("injected operator panic")
				}
				ctx.Emit(e)
				return nil
			})).
			Sink("out", sink.Factory())
		return b.Build()
	}
	store := core.NewMemorySnapshotStore()
	out, rep, err := RunSupervised(ctx, fac, store, RestartStrategy{MaxRestarts: 3, Delay: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("panic recovery lost/duplicated output: want %d distinct, got %d", n, len(out))
	}
	if rep.Restarts != 1 {
		t.Fatalf("want one restart after the panic, got %+v", rep)
	}
}

// TestRunSupervisedRecoversAcrossDeltaChain pins supervised recovery when the
// latest completed checkpoint is an incremental (delta) checkpoint: the
// restarted incarnation must resolve the chain back to its full parent and
// resume exactly-once. The failure is triggered *by* chain shape — the job
// dies only once the store's Latest is a delta — so the test cannot silently
// degrade into restoring a self-contained snapshot.
func TestRunSupervisedRecoversAcrossDeltaChain(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 600
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{Key: fmt.Sprintf("k%d", i%5), Timestamp: int64(i * 10), Value: int64(i)}
	}
	store := core.NewMemorySnapshotStore()
	var fired int32
	var tripMeta core.CheckpointMeta
	fac := func(sink *core.CollectSink, st core.SnapshotStore) (*core.Job, error) {
		b := core.NewBuilder(core.Config{
			Name:              "ha-delta",
			SnapshotStore:     st,
			CheckpointEvery:   30,
			ChannelCapacity:   4,
			WatermarkInterval: 1,
			DeltaCheckpoints:  true,
			// Keep every checkpoint after the first a delta, so the trip
			// condition below implies the recovery point is a chain head.
			FullSnapshotEvery: 100,
		})
		keyed := b.Source("src", core.NewSliceSourceFactory(events), core.WithBoundedDisorder(0)).
			Process("trip", core.MapFunc(func(e core.Event, ctx core.Context) error {
				time.Sleep(120 * time.Microsecond) // pace so checkpoints land mid-stream
				if atomic.LoadInt32(&fired) == 0 {
					if meta, ok := store.Latest(); ok && meta.Parent != 0 &&
						atomic.CompareAndSwapInt32(&fired, 0, 1) {
						tripMeta = meta
						return fmt.Errorf("injected failure on delta checkpoint %d (parent %d)", meta.ID, meta.Parent)
					}
				}
				ctx.Emit(e)
				return nil
			})).
			KeyBy(func(e core.Event) string { return e.Key })
		window.Apply(keyed, "win", window.NewTumbling(1_000), window.CountAggregate()).
			Sink("out", sink.Factory())
		return b.Build()
	}
	out, rep, err := RunSupervised(ctx, fac, store, RestartStrategy{MaxRestarts: 3, Delay: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&fired) == 0 {
		t.Fatal("no delta checkpoint completed before the stream drained; the scenario never ran")
	}
	if tripMeta.Parent == 0 {
		t.Fatalf("trip recorded a non-delta checkpoint: %+v", tripMeta)
	}
	if rep.Restarts != 1 {
		t.Fatalf("want exactly one restart, got %+v", rep)
	}
	if len(rep.RecoveredFrom) != 2 || rep.RecoveredFrom[1] < tripMeta.ID {
		t.Fatalf("restart should resume from the delta chain head %d or later: %v", tripMeta.ID, rep.RecoveredFrom)
	}
	// 6 tumbling 1s windows x 5 keys, 20 events each: a replay that dropped
	// or double-counted any event would surface as a distinct extra result.
	if len(out) != 30 {
		t.Fatalf("want 30 distinct window results, got %d", len(out))
	}
	for _, e := range out {
		if v, ok := e.Value.(int64); !ok || v != 20 {
			t.Fatalf("window %s@%d counted %v, want 20", e.Key, e.Timestamp, e.Value)
		}
	}
}

func TestPassiveStandbyPrimaryFinishesBeforeKill(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 100
	store := core.NewMemorySnapshotStore()
	out, _, err := RunPassiveStandby(ctx, factory(n), store, n*10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("want %d distinct outputs, got %d", n, len(out))
	}
}
