package core

// Checkpoint and savepoint requests: where their barriers land, when they
// are rejected, and how a checkpoint settles.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// triggerAfter wraps a replayable source so that each instance, right after
// its every-th record, requests a barrier from its own goroutine: a
// savepoint once, or a checkpoint at every multiple, whose completion it
// awaits before collecting on. The barrier lands right before the
// instance's next record however the rest of the job is scheduled.
func triggerAfter(f SourceFactory, every int, savepoint bool, job **Job) SourceFactory {
	return func(instance, par int) Source {
		src := f(instance, par).(ReplayableSource)
		return &triggerSource{ReplayableSource: src, every: every, savepoint: savepoint, job: job}
	}
}

type triggerSource struct {
	ReplayableSource
	every     int
	savepoint bool
	job       **Job
}

func (s *triggerSource) Run(ctx SourceContext) error {
	return s.ReplayableSource.Run(&triggerCtx{SourceContext: ctx, s: s})
}

// triggerCtx counts the records its source collects.
type triggerCtx struct {
	SourceContext
	s    *triggerSource
	seen int
	// done closes once the checkpoint triggered last completes.
	done <-chan struct{}
}

func (c *triggerCtx) Collect(e Event) bool { return c.CollectBatch([]Event{e}) }

func (c *triggerCtx) CollectBatch(events []Event) bool {
	if !c.SourceContext.CollectBatch(events) {
		return false
	}
	if c.done != nil { // its barrier went out ahead of these records
		select {
		case <-c.done:
		case <-time.After(10 * time.Second):
		}
		c.done = nil
	}
	before := c.seen
	c.seen += len(events)
	job := *c.s.job
	switch {
	case before/c.s.every == c.seen/c.s.every:
	case c.s.savepoint:
		if before < c.s.every {
			job.TriggerSavepoint()
		}
	default:
		last := job.LastCheckpoint()
		if job.TriggerCheckpoint() {
			c.done = job.WhenCheckpoint(last + 1)
		}
	}
	return true
}

func TestTriggerRejectedBeforeRunAndAfterEOS(t *testing.T) {
	// Before Run has restored the job a request has nothing to snapshot, and
	// once a source has sent its EOS no barrier can precede it: both are
	// rejected rather than accepted and never emitted.
	var job *Job
	var accepted int
	var afterEOS bool
	// late keeps triggering until the other source's EOS closes the job to
	// requests, then collects its records.
	late := SourceFunc(func(ctx SourceContext) error {
		deadline := time.Now().Add(10 * time.Second)
		for job.TriggerCheckpoint() {
			accepted++
			if time.Now().After(deadline) {
				return errors.New("checkpoint requests still accepted 10s after a source ended")
			}
			time.Sleep(100 * time.Microsecond)
		}
		afterEOS = job.TriggerSavepoint()
		for _, e := range genEvents(50, 1) {
			if !ctx.Collect(e) {
				return nil
			}
		}
		return nil
	})
	sink := NewCollectSink()
	b := NewBuilder(Config{Name: "reject", SnapshotStore: NewMemorySnapshotStore()})
	b.Source("early", NewSliceSourceFactory(nil)).
		Union(b.Source("late", late)).
		Process("merge", MapFunc(func(e Event, ctx Context) error {
			ctx.Emit(e)
			return nil
		}), 1).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	job = j
	if j.TriggerCheckpoint() || j.TriggerSavepoint() {
		t.Fatal("request accepted before Run")
	}
	runJob(t, j)
	if afterEOS {
		t.Fatal("savepoint accepted after a source's EOS")
	}
	if j.TriggerCheckpoint() || j.TriggerSavepoint() {
		t.Fatal("request accepted after Run returned")
	}
	if accepted > 0 && j.LastCheckpoint() < 1 {
		t.Fatalf("%d requests accepted before EOS, but no checkpoint completed", accepted)
	}
	if sink.Len() != 50 || j.SavepointStopped() {
		t.Fatalf("job did not run to its natural end: %d records, savepoint stop %v", sink.Len(), j.SavepointStopped())
	}
}

// gatedCompleteStore holds each Complete until release is closed, and
// closes entered when the first one starts.
type gatedCompleteStore struct {
	*MemorySnapshotStore
	entered, release chan struct{}
	once             sync.Once
}

func (s *gatedCompleteStore) Complete(meta CheckpointMeta) error {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.MemorySnapshotStore.Complete(meta)
}

func TestTriggerRejectedWhileSettlingAndAfterSavepoint(t *testing.T) {
	// A checkpoint may be a delta of the one before, so a checkpoint request
	// made while the store is still completing that one is rejected, not
	// accepted and dropped. Once a savepoint has started the sources are
	// stopping, and every request is rejected.
	store := &gatedCompleteStore{MemorySnapshotStore: NewMemorySnapshotStore(),
		entered: make(chan struct{}), release: make(chan struct{})}
	var job *Job
	var steps []bool
	src := SourceFunc(func(ctx SourceContext) error {
		events := genEvents(4, 1)
		steps = append(steps, job.TriggerCheckpoint())
		ctx.Collect(events[0]) // checkpoint 1's barrier goes out first
		select {
		case <-store.entered:
		case <-time.After(10 * time.Second):
			return errors.New("checkpoint 1 never reached the store")
		}
		steps = append(steps, job.TriggerCheckpoint(), job.TriggerSavepoint())
		close(store.release)
		select {
		case <-job.WhenCheckpoint(1):
		case <-time.After(10 * time.Second):
			return errors.New("checkpoint 1 never completed")
		}
		steps = append(steps, job.TriggerCheckpoint(), job.TriggerSavepoint())
		for _, e := range events[1:] {
			if !ctx.Collect(e) {
				return nil
			}
		}
		return nil
	})
	sink := NewCollectSink()
	b := NewBuilder(Config{Name: "settling", SnapshotStore: store})
	b.Source("src", src).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	job = j
	runJob(t, j)
	// accepted: checkpoint 1; rejected: a checkpoint while 1 settles;
	// accepted: a savepoint, which need not wait; then, after it, nothing.
	want := []bool{true, false, true, false, false}
	if fmt.Sprint(steps) != fmt.Sprint(want) {
		t.Fatalf("trigger results %v, want %v", steps, want)
	}
	if meta, ok := store.Latest(); !j.SavepointStopped() || !ok || !meta.Savepoint || meta.ID != 2 || sink.Len() != 1 {
		t.Fatalf("savepoint 2 did not stop the job after one record: stopped %v, latest %+v (%v), %d records",
			j.SavepointStopped(), meta, ok, sink.Len())
	}
}

func TestOperatorSavepointCompletesOrIsRejected(t *testing.T) {
	// A savepoint requested from an operator races its source to end of
	// stream at the default ChannelCapacity. Either outcome is definite: a
	// rejected request leaves the stream to end naturally, and an accepted
	// one completes and stops the job.
	const runs, n, at = 500, 200, 150
	var rejected int
	for run := 0; run < runs; run++ {
		store := NewMemorySnapshotStore()
		sink := NewCollectSink()
		var job *Job
		var accepted bool
		seen := 0
		b := NewBuilder(Config{Name: "op-savepoint", SnapshotStore: store})
		b.Source("src", NewSliceSourceFactory(genEvents(n, 3))).
			Map("trigger", func(e Event) (Event, bool) {
				if seen++; seen == at {
					accepted = job.TriggerSavepoint()
				}
				return e, true
			}).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		job = j
		runJob(t, j)
		if !accepted {
			rejected++
			if j.SavepointStopped() || sink.Len() != n {
				t.Fatalf("run %d: rejected savepoint, yet %d of %d records and savepoint stop %v",
					run, sink.Len(), n, j.SavepointStopped())
			}
			continue
		}
		meta, ok := store.Latest()
		if !j.SavepointStopped() || !ok || !meta.Savepoint || meta.ID != j.LastCheckpoint() {
			t.Fatalf("run %d: accepted savepoint did not complete and stop the job: stopped %v, latest %+v (%v)",
				run, j.SavepointStopped(), meta, ok)
		}
	}
	t.Logf("%d of %d savepoints rejected at end of stream", rejected, runs)
}

// failFirstStore fails every Save of one instance for checkpoint 1, and
// records which instances' snapshots each Discard finds.
type failFirstStore struct {
	*MemorySnapshotStore
	fail string

	mu        sync.Mutex
	discarded map[int64][]string
}

func (s *failFirstStore) Save(cp int64, id string, data []byte) error {
	if cp == 1 && id == s.fail {
		return errors.New("injected save failure")
	}
	return s.MemorySnapshotStore.Save(cp, id, data)
}

func (s *failFirstStore) Discard(cp int64) error {
	ids, _ := s.Instances(cp)
	s.mu.Lock()
	s.discarded[cp] = ids
	s.mu.Unlock()
	return s.MemorySnapshotStore.Discard(cp)
}

func TestAbortedCheckpointSkipsNoBarrier(t *testing.T) {
	// The fast source instance's snapshot for checkpoint 1 fails while the
	// slow one has yet to emit that barrier. The checkpoint settles only
	// once every participant has acked, so the slow instance never jumps
	// to checkpoint 2 — which alignment would reject as overlapping — and
	// the Discard sees every snapshot that was saved.
	const n = 400
	events := genEvents(n, 7)
	run := func(store SnapshotStore) (*Job, map[string]int) {
		sink := NewCollectSink()
		b := NewBuilder(Config{Name: "abort", SnapshotStore: store, CheckpointEvery: 5, SnapshotRetries: -1})
		slowOdd := func(i int) time.Duration { return time.Duration(i%2) * 200 * time.Microsecond }
		b.Source("src", NewPacedSourceFactory(events, slowOdd), WithParallelism(2)).
			KeyBy(func(e Event) string { return e.Key }).
			ProcessWith("count", func() Operator { return &countOperator{} }, 2).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		runJob(t, j)
		out := map[string]int{}
		for _, e := range sink.Events() {
			out[fmt.Sprintf("%s=%v", e.Key, e.Value)]++
		}
		return j, out
	}

	_, want := run(NewMemorySnapshotStore())
	store := &failFirstStore{MemorySnapshotStore: NewMemorySnapshotStore(), fail: "src-0",
		discarded: map[int64][]string{}}
	j, got := run(store)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("output with an aborted checkpoint differs:\n got %v\nwant %v", got, want)
	}
	if n := j.AbortedCheckpoints(); n != 1 {
		t.Fatalf("aborted %d checkpoints, want 1", n)
	}
	saved := []string{"count-0", "count-1", "out-0", "src-1"}
	if fmt.Sprint(store.discarded) != fmt.Sprint(map[int64][]string{1: saved}) {
		t.Fatalf("discards saw %v, want checkpoint 1 with every snapshot but %s: %v", store.discarded, store.fail, saved)
	}
}

// slowStore delays Save so a checkpoint stays in flight long enough for a
// savepoint request to arrive while it is active.
type slowStore struct {
	SnapshotStore
	delay time.Duration
}

func (s *slowStore) Save(cp int64, id string, data []byte) error {
	time.Sleep(s.delay)
	return s.SnapshotStore.Save(cp, id, data)
}

func TestSavepointHeldBehindInflightCheckpoint(t *testing.T) {
	// A savepoint requested while another checkpoint is in flight must not
	// be coalesced away: it is held and initiated when the in-flight
	// checkpoint settles, so the job still stops with a savepoint.
	const n = 500
	store := &slowStore{SnapshotStore: NewMemorySnapshotStore(), delay: 30 * time.Millisecond}
	sink := NewCollectSink()
	var jobRef *Job
	// The source requests the savepoint after record 45, right behind the
	// automatic checkpoint after record 40, whose 30ms snapshot saves keep
	// it in flight. ChannelCapacity 8 keeps the source backpressured while
	// they run, so the held savepoint lands mid-stream and the early stop
	// is visible in the output.
	b := NewBuilder(Config{Name: "held", SnapshotStore: store, CheckpointEvery: 40, ChannelCapacity: 8})
	b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(n, 2)), 45, true, &jobRef)).
		Map("mid", func(e Event) (Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jobRef = j
	runJob(t, j)
	if !j.SavepointStopped() {
		t.Fatalf("savepoint was dropped: job ran to completion (%d events)", sink.Len())
	}
	if sink.Len() >= n {
		t.Fatalf("savepoint did not stop the job early (%d events)", sink.Len())
	}
	meta, ok := store.Latest()
	if !ok || !meta.Savepoint {
		t.Fatalf("latest completed checkpoint is not the savepoint: %+v ok=%v", meta, ok)
	}

	// Two sources request a checkpoint at every record, so periodic
	// requests keep landing while the checkpoint ahead of the held
	// savepoint settles. The savepoint must start at that checkpoint's last
	// ack, before any of them: a periodic checkpoint started in between
	// would be overwritten unacked, a source would skip its barrier, and
	// alignment would fail the job with overlapping checkpoints.
	for run := 0; run < 100; run++ {
		store := NewMemorySnapshotStore()
		var job *Job
		b := NewBuilder(Config{Name: "held-periodic", SnapshotStore: store, CheckpointEvery: 1})
		b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(4000, 3)), 20, true, &job), WithParallelism(2)).
			KeyBy(func(e Event) string { return e.Key }).
			ProcessWith("count", func() Operator { return &countOperator{} }, 2).
			Sink("out", NewCollectSink().Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		job = j
		runJob(t, j)
		if meta, ok := store.Latest(); !j.SavepointStopped() || !ok || !meta.Savepoint {
			t.Fatalf("run %d: no savepoint stop: stopped %v, latest %+v (%v)", run, j.SavepointStopped(), meta, ok)
		}
	}
}

func TestWhenCheckpointNotifies(t *testing.T) {
	const n = 300
	store := NewMemorySnapshotStore()
	sink := NewCollectSink()
	b := NewBuilder(Config{Name: "notify", SnapshotStore: store, CheckpointEvery: 50})
	b.Source("src", NewSliceSourceFactory(genEvents(n, 2))).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := j.WhenCheckpoint(1)
	runJob(t, j)
	select {
	case <-ch:
	default:
		t.Fatalf("waiter for checkpoint 1 never notified (last completed: %d)", j.LastCheckpoint())
	}
	// Registering for an already-completed ID returns a closed channel.
	select {
	case <-j.WhenCheckpoint(j.LastCheckpoint()):
	default:
		t.Fatal("waiter for an already-completed checkpoint not immediately closed")
	}
	if j.SavepointStopped() {
		t.Fatal("naturally-finished job reports SavepointStopped")
	}
}
