package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventtime"
	"repro/internal/state"
)

// genEvents builds n events with ascending timestamps and cyclic keys.
func genEvents(n, keys int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Key:       fmt.Sprintf("k%d", i%keys),
			Timestamp: int64(i * 10),
			Value:     int64(1),
		}
	}
	return evs
}

func runJob(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatalf("job failed: %v", err)
	}
}

func TestMapFilterPipeline(t *testing.T) {
	b := NewBuilder(Config{Name: "map-filter"})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(100, 4))).
		Map("double", func(e Event) (Event, bool) {
			e.Value = e.Value.(int64) * 2
			return e, true
		}).
		Filter("evens", func(e Event) bool { return e.Timestamp%20 == 0 }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if got := sink.Len(); got != 50 {
		t.Fatalf("want 50 events, got %d", got)
	}
	for _, e := range sink.Events() {
		if e.Value.(int64) != 2 {
			t.Fatalf("value not doubled: %v", e)
		}
	}
}

func TestParallelKeyedCount(t *testing.T) {
	const n, keys = 1000, 7
	b := NewBuilder(Config{Name: "keyed-count", DefaultParallelism: 1})
	sink := NewCollectSink()

	counter := func() Operator {
		return &countOperator{}
	}
	b.Source("src", NewSliceSourceFactory(genEvents(n, keys)), WithParallelism(2)).
		KeyBy(func(e Event) string { return e.Key }).
		ProcessWith("count", counter, 3).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)

	// The count operator emits the final count per key on Close.
	totals := map[string]int64{}
	for _, e := range sink.Events() {
		totals[e.Key] += e.Value.(int64)
	}
	if len(totals) != keys {
		t.Fatalf("want %d keys, got %d: %v", keys, len(totals), totals)
	}
	sum := int64(0)
	for _, v := range totals {
		sum += v
	}
	if sum != n {
		t.Fatalf("want total %d, got %d", n, sum)
	}
}

// countOperator counts elements per key in managed state and emits totals on
// Close.
type countOperator struct {
	BaseOperator
}

func (c *countOperator) ProcessElement(e Event, ctx Context) error {
	st := ctx.State().Value("count")
	cur, _ := st.Get()
	n, _ := cur.(int64)
	st.Set(n + 1)
	return nil
}

func (c *countOperator) Close(ctx Context) error {
	ctx.State().ForEachKey("count", func(key string, v any) bool {
		ctx.Emit(Event{Key: key, Value: v})
		return true
	})
	return nil
}

func TestEventTimeTimersFireWithWatermarks(t *testing.T) {
	// An operator that registers a timer 50ms after each event and emits on
	// fire; with bounded disorder 0 all timers must fire by end of stream.
	b := NewBuilder(Config{Name: "timers", WatermarkInterval: 1})
	sink := NewCollectSink()
	fac := func() Operator { return &timerEcho{} }
	b.Source("src", NewSliceSourceFactory(genEvents(50, 3)), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		Process("echo", fac).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != 50 {
		t.Fatalf("want 50 timer firings, got %d", sink.Len())
	}
	// Watermark visible to the operator must have been monotone.
	for _, e := range sink.Events() {
		if e.Value.(int64) < 0 {
			t.Fatalf("timer fired before watermark passed it: %v", e)
		}
	}
}

type timerEcho struct {
	BaseOperator
}

func (o *timerEcho) ProcessElement(e Event, ctx Context) error {
	st := ctx.State().List("pending")
	st.Append(e.Timestamp)
	ctx.RegisterEventTimeTimer(e.Timestamp + 50)
	return nil
}

func (o *timerEcho) OnTimer(ts int64, ctx Context) error {
	lag := ctx.CurrentWatermark() - ts // >= 0 iff watermark passed the timer
	ctx.Emit(Event{Key: ctx.Key(), Timestamp: ts, Value: lag})
	return nil
}

func TestWatermarkAlignmentAcrossChannels(t *testing.T) {
	// Two parallel sources; downstream watermark must be the min across
	// channels, hence monotone at the sink.
	b := NewBuilder(Config{Name: "wm-align", WatermarkInterval: 1})
	var wms []int64
	probe := func() Operator { return &wmProbe{out: &wms} }
	b.Source("src", NewSliceSourceFactory(genEvents(200, 5)), WithParallelism(2), WithBoundedDisorder(0)).
		ProcessWith("probe", probe, 1).
		Sink("out", NewCollectSink().Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if len(wms) == 0 {
		t.Fatal("probe saw no watermarks")
	}
	for i := 1; i < len(wms); i++ {
		if wms[i] < wms[i-1] {
			t.Fatalf("watermark regressed: %d then %d", wms[i-1], wms[i])
		}
	}
}

type wmProbe struct {
	BaseOperator
	out *[]int64
}

func (o *wmProbe) OnWatermark(wm int64, _ Context) error {
	if wm != eventtime.MaxWatermark {
		*o.out = append(*o.out, wm)
	}
	return nil
}

func TestCheckpointAndRestore(t *testing.T) {
	// Run a counting job with periodic checkpoints; then restore a second
	// job from the last checkpoint and verify counts continue (state and
	// source offsets both restored) so the final total matches a clean run.
	const n, keys = 400, 4
	store := NewMemorySnapshotStore()

	build := func(sink *CollectSink) *Job {
		b := NewBuilder(Config{
			Name:            "chk",
			SnapshotStore:   store,
			CheckpointEvery: 50,
		})
		b.Source("src", NewSliceSourceFactory(genEvents(n, keys))).
			KeyBy(func(e Event) string { return e.Key }).
			Process("count", func() Operator { return &countOperator{} }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// First run to completion: checkpoints are taken along the way.
	sink1 := NewCollectSink()
	j1 := build(sink1)
	runJob(t, j1)
	cp := j1.LastCheckpoint()
	if cp < 0 {
		t.Fatal("no checkpoint completed")
	}

	// Restore from the checkpoint: the job resumes from the snapshot offset
	// and replays only the tail; per-key totals at Close must still equal
	// the full count (state restored + remaining events).
	sink2 := NewCollectSink()
	j2 := build(sink2)
	j2.RestoreFrom(cp)
	runJob(t, j2)

	totals := map[string]int64{}
	for _, e := range sink2.Events() {
		totals[e.Key] += e.Value.(int64)
	}
	sum := int64(0)
	for _, v := range totals {
		sum += v
	}
	if sum != n {
		t.Fatalf("restored run: want total %d, got %d (%v)", n, sum, totals)
	}
}

func TestSavepointStopsAndResumes(t *testing.T) {
	// Trigger a savepoint mid-stream: the job stops early; a second job
	// restored from the savepoint processes exactly the remainder.
	const n = 300
	store := NewMemorySnapshotStore()
	sink1 := NewCollectSink()

	// The source requests a savepoint after its 100th element.
	var jobRef *Job
	b := NewBuilder(Config{Name: "sp", SnapshotStore: store})
	b.Source("src", triggerAfter(NewSliceSourceFactory(genEvents(n, 3)), 100, true, &jobRef)).
		Sink("out", sink1.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jobRef = j
	runJob(t, j)
	cp := j.LastCheckpoint()
	if cp < 0 {
		t.Fatal("savepoint did not complete")
	}
	got1 := sink1.Len()
	if got1 >= n {
		t.Fatalf("savepoint did not stop the job early (%d events)", got1)
	}

	sink2 := NewCollectSink()
	b2 := NewBuilder(Config{Name: "sp2", SnapshotStore: store})
	b2.Source("src", NewSliceSourceFactory(genEvents(n, 3))).
		Sink("out", sink2.Factory())
	j2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	j2.RestoreFrom(cp)
	runJob(t, j2)
	if got1+sink2.Len() != n {
		t.Fatalf("savepoint split lost/duplicated events: %d + %d != %d", got1, sink2.Len(), n)
	}
}

func TestExactlyOnceNoDuplicatesAcrossRestore(t *testing.T) {
	// With aligned barriers and replayable sources, restoring from the
	// savepoint and concatenating outputs yields exactly the input stream.
	const n = 200
	store := NewMemorySnapshotStore()
	events := genEvents(n, 1)

	run := func(restoreFrom int64, stopAt int) ([]Event, int64) {
		sink := NewCollectSink()
		var jobRef *Job
		b := NewBuilder(Config{Name: "eo", SnapshotStore: store})
		src := NewSliceSourceFactory(events)
		if stopAt > 0 {
			src = triggerAfter(src, stopAt, true, &jobRef)
		}
		b.Source("src", src).
			Map("mid", func(e Event) (Event, bool) { return e, true }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		jobRef = j
		if restoreFrom >= 0 {
			j.RestoreFrom(restoreFrom)
		}
		runJob(t, j)
		return sink.Events(), j.LastCheckpoint()
	}

	first, cp := run(-1, 60)
	if cp < 0 {
		t.Fatal("no savepoint")
	}
	second, _ := run(cp, 0)

	all := append(append([]Event(nil), first...), second...)
	if len(all) != n {
		t.Fatalf("want exactly %d events, got %d (first=%d second=%d)", n, len(all), len(first), len(second))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Timestamp < all[j].Timestamp })
	for i, e := range all {
		if e.Timestamp != int64(i*10) {
			t.Fatalf("event %d has timestamp %d; duplicate or loss detected", i, e.Timestamp)
		}
	}
}

func TestBroadcastReachesAllInstances(t *testing.T) {
	const n = 50
	b := NewBuilder(Config{Name: "bcast"})
	sink := NewCollectSink()
	s := b.Source("src", NewSliceSourceFactory(genEvents(n, 2)))
	s.Broadcast("fan", MapFunc(func(e Event, ctx Context) error {
		e.Key = fmt.Sprintf("inst-%d", ctx.InstanceIndex())
		ctx.Emit(e)
		return nil
	}), 3).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != n*3 {
		t.Fatalf("broadcast: want %d events, got %d", n*3, sink.Len())
	}
}

func TestUnionMergesStreams(t *testing.T) {
	b := NewBuilder(Config{Name: "union"})
	sink := NewCollectSink()
	s1 := b.Source("a", NewSliceSourceFactory(genEvents(30, 1)))
	s2 := b.Source("b", NewSliceSourceFactory(genEvents(20, 1)))
	s1.Union(s2).Process("merge", MapFunc(func(e Event, ctx Context) error {
		ctx.Emit(e)
		return nil
	}), 1).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != 50 {
		t.Fatalf("union: want 50, got %d", sink.Len())
	}
}

func TestGraphValidationRejectsCycles(t *testing.T) {
	g := &Graph{}
	a := &node{id: 0, name: "a", parallelism: 1, isSource: true, sourceFac: NewSliceSourceFactory(nil)}
	bn := &node{id: 1, name: "b", parallelism: 1, opFac: MapFunc(nil)}
	c := &node{id: 2, name: "c", parallelism: 1, opFac: MapFunc(nil)}
	g.nodes = []*node{a, bn, c}
	e1 := &edge{id: 0, from: a, to: bn, kind: PartitionForward}
	e2 := &edge{id: 1, from: bn, to: c, kind: PartitionForward}
	e3 := &edge{id: 2, from: c, to: bn, kind: PartitionForward}
	g.edges = []*edge{e1, e2, e3}
	a.outEdges = []*edge{e1}
	bn.inEdges = []*edge{e1, e3}
	bn.outEdges = []*edge{e2}
	c.inEdges = []*edge{e2}
	c.outEdges = []*edge{e3}
	if err := g.validate(); err == nil {
		t.Fatal("cycle not rejected")
	}
}

func TestLSMBackendInEngine(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder(Config{
		Name: "lsm-backend",
		BackendFactory: func(nodeName string, instance int) (state.Backend, error) {
			return state.NewLSMBackend(fmt.Sprintf("%s/%s-%d", dir, nodeName, instance), 0)
		},
	})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(100, 5))).
		KeyBy(func(e Event) string { return e.Key }).
		Process("count", func() Operator { return &countOperator{} }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	total := int64(0)
	for _, e := range sink.Events() {
		total += e.Value.(int64)
	}
	if total != 100 {
		t.Fatalf("lsm-backed count: want 100, got %d", total)
	}
}

func TestRescaleCheckpointRedistributesState(t *testing.T) {
	// Run a keyed count at parallelism 2, savepoint mid-stream, rescale the
	// count node to parallelism 4, resume, and verify the total still adds
	// up: no key lost or double-counted across migration.
	const n, keys = 500, 11
	store := NewMemorySnapshotStore()
	events := genEvents(n, keys)

	build := func(par int, stopAt int, jobRef **Job, sink *CollectSink) *Job {
		b := NewBuilder(Config{Name: "rescale", SnapshotStore: store})
		src := NewSliceSourceFactory(events)
		if stopAt > 0 {
			src = triggerAfter(src, stopAt, true, jobRef)
		}
		b.Source("src", src).
			KeyBy(func(e Event) string { return e.Key }).
			ProcessWith("count", func() Operator { return &countOperator{} }, par).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	var j1 *Job
	sink1 := NewCollectSink()
	j1 = build(2, 200, &j1, sink1)
	runJob(t, j1)
	cp := j1.LastCheckpoint()
	if cp < 0 {
		t.Fatal("no savepoint")
	}

	stats, err := RescaleCheckpoint(store, cp, cp+1, "count", 4, state.DefaultKeyGroups)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldParallelism != 2 || stats.NewParallelism != 4 {
		t.Fatalf("unexpected stats: %+v", stats)
	}

	sink2 := NewCollectSink()
	j2 := build(4, 0, nil, sink2)
	j2.RestoreFrom(cp + 1)
	runJob(t, j2)

	totals := map[string]int64{}
	for _, e := range sink2.Events() {
		totals[e.Key] += e.Value.(int64)
	}
	sum := int64(0)
	for _, v := range totals {
		sum += v
	}
	if sum != n {
		t.Fatalf("after rescale: want total %d, got %d (%d keys)", n, sum, len(totals))
	}
	if len(totals) != keys {
		t.Fatalf("after rescale: want %d keys, got %d", keys, len(totals))
	}
}

func TestOperatorErrorFailsJob(t *testing.T) {
	b := NewBuilder(Config{Name: "failing"})
	b.Source("src", NewSliceSourceFactory(genEvents(100, 2))).
		Process("boom", MapFunc(func(e Event, ctx Context) error {
			if e.Timestamp >= 300 {
				return fmt.Errorf("injected failure at %d", e.Timestamp)
			}
			ctx.Emit(e)
			return nil
		})).
		Sink("out", NewCollectSink().Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = j.Run(ctx)
	if err == nil {
		t.Fatal("operator error did not fail the job")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("wrong error surfaced: %v", err)
	}
}

func TestJobRunsOnlyOnce(t *testing.T) {
	b := NewBuilder(Config{Name: "once"})
	b.Source("src", NewSliceSourceFactory(genEvents(5, 1))).
		Sink("out", NewCollectSink().Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if err := j.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestJobStopCancelsPromptly(t *testing.T) {
	// An endless source must stop when Stop is called.
	endless := SourceFunc(func(ctx SourceContext) error {
		i := int64(0)
		for ctx.Collect(Event{Timestamp: i}) {
			i++
		}
		return nil
	})
	sink := NewCollectSink()
	b := NewBuilder(Config{Name: "stoppable", ChannelCapacity: 4})
	b.Source("src", endless).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Run(context.Background()) }()
	for sink.Len() < 100 {
		time.Sleep(time.Millisecond)
	}
	j.Stop()
	// Stop is a graceful user cancellation: Run must return promptly (nil,
	// since the caller's own context is intact).
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not stop")
	}
}

func TestJobMetricsCountRecords(t *testing.T) {
	b := NewBuilder(Config{Name: "metrics"})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(50, 2))).
		Map("m", func(e Event) (Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if got := j.Metrics().Counter("node.src.out").Value(); got != 50 {
		t.Fatalf("source out counter: want 50, got %d", got)
	}
	if got := j.Metrics().Counter("node.m.in").Value(); got != 50 {
		t.Fatalf("map in counter: want 50, got %d", got)
	}
	if got := j.Metrics().Counter("node.m.out").Value(); got != 50 {
		t.Fatalf("map out counter: want 50, got %d", got)
	}
}

func TestBuilderValidationErrors(t *testing.T) {
	// Empty graph.
	if _, err := NewBuilder(Config{}).Build(); err == nil {
		t.Fatal("empty graph accepted")
	}
	// Duplicate node names.
	b := NewBuilder(Config{})
	b.Source("dup", NewSliceSourceFactory(nil))
	b.Source("dup", NewSliceSourceFactory(nil))
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate names accepted")
	}
	// No source.
	g := &Graph{nodes: []*node{{id: 0, name: "op", parallelism: 1, opFac: MapFunc(nil),
		inEdges: []*edge{{}}}}}
	if err := g.validate(); err == nil {
		t.Fatal("graph without source accepted")
	}
}

func TestNonDrainStopDoesNotFlushTimers(t *testing.T) {
	// With a savepoint stop, registered timers must NOT fire (they are
	// captured in the snapshot instead); with a natural end they all fire.
	mkJob := func(stopAt int, jobRef **Job, store SnapshotStore) (*Job, *CollectSink) {
		sink := NewCollectSink()
		b := NewBuilder(Config{Name: "drain-test", SnapshotStore: store, WatermarkInterval: 4})
		src := NewSliceSourceFactory(genEvents(200, 3))
		if stopAt > 0 {
			src = triggerAfter(src, stopAt, true, jobRef)
		}
		b.Source("src", src, WithBoundedDisorder(0)).
			KeyBy(func(e Event) string { return e.Key }).
			Process("timers", func() Operator { return &farTimerOp{} }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j, sink
	}

	// Natural end: all timers fire via the final watermark.
	jNat, sinkNat := mkJob(0, nil, nil)
	runJob(t, jNat)
	if sinkNat.Len() != 200 {
		t.Fatalf("natural end should fire all 200 timers, got %d", sinkNat.Len())
	}

	// Savepoint stop: no timer fires at stop; they fire after restore+finish.
	store := NewMemorySnapshotStore()
	var j1 *Job
	job1, sink1 := mkJob(50, &j1, store)
	j1 = job1
	runJob(t, job1)
	if sink1.Len() != 0 {
		t.Fatalf("savepoint stop fired %d timers; want 0", sink1.Len())
	}
	job2, sink2 := mkJob(0, nil, store)
	job2.RestoreFrom(job1.LastCheckpoint())
	runJob(t, job2)
	if sink2.Len() != 200 {
		t.Fatalf("restored run should fire all 200 timers, got %d", sink2.Len())
	}
}

// farTimerOp registers a far-future timer per element; they only fire when
// event time is driven to infinity (drain) or by later stream progress.
type farTimerOp struct {
	BaseOperator
}

func (o *farTimerOp) ProcessElement(e Event, ctx Context) error {
	// One unique far-future timer per element; they fire only when event
	// time is driven to infinity (drain).
	ctx.RegisterEventTimeTimer((1 << 40) + e.Timestamp + 1)
	return nil
}

func (o *farTimerOp) OnTimer(ts int64, ctx Context) error {
	if ts > 1<<40 { // the per-element timers
		ctx.Emit(Event{Key: ctx.Key(), Timestamp: ts})
	}
	return nil
}

func TestFileSnapshotStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Latest(); ok {
		t.Fatal("empty store reports a checkpoint")
	}
	if err := store.Save(1, "op-0", []byte("snap1")); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(1, "src-0", []byte("snap2")); err != nil {
		t.Fatal(err)
	}
	// Incomplete checkpoints are invisible.
	if _, ok := store.Latest(); ok {
		t.Fatal("incomplete checkpoint reported")
	}
	meta := CheckpointMeta{ID: 1, JobName: "fs", InstanceIDs: []string{"op-0", "src-0"}, Bytes: 10}
	if err := store.Complete(meta); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Latest()
	if !ok || got.ID != 1 || got.JobName != "fs" {
		t.Fatalf("latest: %+v %v", got, ok)
	}
	data, err := store.Load(1, "op-0")
	if err != nil || string(data) != "snap1" {
		t.Fatalf("load: %q %v", data, err)
	}
	ids, err := store.Instances(1)
	if err != nil || len(ids) != 2 {
		t.Fatalf("instances: %v %v", ids, err)
	}
	// A newer completed checkpoint wins.
	store.Save(3, "op-0", []byte("x"))
	store.Complete(CheckpointMeta{ID: 3})
	if got, _ := store.Latest(); got.ID != 3 {
		t.Fatalf("latest should be 3, got %d", got.ID)
	}
	// Reopening the directory sees the same state (process restart).
	store2, err := NewFileSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := store2.Latest(); !ok || got.ID != 3 {
		t.Fatalf("reopened store: %+v %v", got, ok)
	}
	if _, err := store2.Load(99, "nope"); err == nil {
		t.Fatal("missing checkpoint load succeeded")
	}
	if _, err := store2.Instances(99); err == nil {
		t.Fatal("missing checkpoint instances succeeded")
	}
}

func TestRecoveryAcrossProcessRestartViaFileStore(t *testing.T) {
	// End-to-end: checkpoint to disk, build a brand-new job (fresh "process")
	// against the same directory, restore, and finish exactly-once.
	dir := t.TempDir()
	const n = 300
	events := genEvents(n, 3)

	run := func(restore bool, stopAt int) (int, int64) {
		store, err := NewFileSnapshotStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewCollectSink()
		var jobRef *Job
		b := NewBuilder(Config{Name: "file-rec", SnapshotStore: store})
		src := NewSliceSourceFactory(events)
		if stopAt > 0 {
			src = triggerAfter(src, stopAt, true, &jobRef)
		}
		b.Source("src", src).
			Map("mid", func(e Event) (Event, bool) { return e, true }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		jobRef = j
		if restore {
			cp, ok := store.Latest()
			if !ok {
				t.Fatal("no checkpoint on disk")
			}
			j.RestoreFrom(cp.ID)
		}
		runJob(t, j)
		return sink.Len(), j.LastCheckpoint()
	}

	got1, cp := run(false, 120)
	if cp < 0 {
		t.Fatal("no savepoint written")
	}
	got2, _ := run(true, 0)
	if got1+got2 != n {
		t.Fatalf("file-store recovery lost/duplicated: %d + %d != %d", got1, got2, n)
	}
}

func TestFlatMapAndRebalance(t *testing.T) {
	b := NewBuilder(Config{Name: "flatmap"})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(20, 2))).
		KeyBy(func(e Event) string { return e.Key }).
		Rebalance(). // clear keying again
		FlatMap("dup", func(e Event, emit func(Event)) {
			emit(e)
			emit(e)
		}).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != 40 {
		t.Fatalf("flatmap: want 40, got %d", sink.Len())
	}
}

func TestDeleteEventTimeTimer(t *testing.T) {
	// Register then delete: the timer must not fire.
	b := NewBuilder(Config{Name: "del-timer", WatermarkInterval: 1})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(10, 1)), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		Process("reg", func() Operator { return &regDelOp{} }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != 0 {
		t.Fatalf("deleted timers fired %d times", sink.Len())
	}
}

type regDelOp struct {
	BaseOperator
}

func (o *regDelOp) ProcessElement(e Event, ctx Context) error {
	ctx.RegisterEventTimeTimer(e.Timestamp + 5)
	ctx.DeleteEventTimeTimer(e.Timestamp + 5)
	return nil
}

func (o *regDelOp) OnTimer(ts int64, ctx Context) error {
	ctx.Emit(Event{Key: ctx.Key(), Timestamp: ts})
	return nil
}

func TestContextAccessors(t *testing.T) {
	b := NewBuilder(Config{Name: "accessors"})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(4, 1))).
		ProcessWith("probe", MapFunc(func(e Event, ctx Context) error {
			if ctx.Parallelism() != 2 {
				return fmt.Errorf("parallelism: %d", ctx.Parallelism())
			}
			if ctx.InstanceIndex() < 0 || ctx.InstanceIndex() >= 2 {
				return fmt.Errorf("instance index: %d", ctx.InstanceIndex())
			}
			if ctx.Logger() == nil {
				return fmt.Errorf("nil logger")
			}
			ctx.Emit(e)
			return nil
		}), 2).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	j.SetLogger(io.Discard)
	runJob(t, j)
	if sink.Len() != 4 {
		t.Fatalf("accessors pipeline dropped events: %d", sink.Len())
	}
}

func TestSourceContextAccessors(t *testing.T) {
	b := NewBuilder(Config{Name: "src-acc"})
	sink := NewCollectSink()
	probe := SourceFunc(func(ctx SourceContext) error {
		if ctx.Parallelism() != 2 || ctx.InstanceIndex() >= 2 {
			return fmt.Errorf("bad source identity %d/%d", ctx.InstanceIndex(), ctx.Parallelism())
		}
		ctx.Collect(Event{Timestamp: int64(ctx.InstanceIndex())})
		return nil
	})
	b.Source("src", probe, WithParallelism(2), WithWatermarkInterval(4)).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != 2 {
		t.Fatalf("want 2 events, got %d", sink.Len())
	}
}

func TestCollectSinkHelpers(t *testing.T) {
	s := NewCollectSink()
	fac := s.Factory()
	op := fac()
	op.ProcessElement(Event{Key: "b", Timestamp: 2}, nil)
	op.ProcessElement(Event{Key: "a", Timestamp: 1}, nil)
	sorted := s.SortedByTimestamp()
	if len(sorted) != 2 || sorted[0].Timestamp != 1 {
		t.Fatalf("sorted: %v", sorted)
	}
	if s.Events()[0].String() == "" {
		t.Fatal("event string empty")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset failed")
	}
}

// TestPacedSourceOffsetRoundTrip pins the snapshot wire format and the
// round-robin global indexing that keeps a rescaled paced replay identical.
func TestPacedSourceOffsetRoundTrip(t *testing.T) {
	events := make([]Event, 10)
	pace := func(int) time.Duration { return 0 }
	s := NewPacedSourceFactory(events, pace)(1, 2).(*SliceSource)
	s.offset = 3
	data, err := s.SnapshotOffset()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewPacedSourceFactory(events, pace)(1, 2).(*SliceSource)
	if err := s2.RestoreOffset(data); err != nil {
		t.Fatal(err)
	}
	if s2.offset != 3 {
		t.Fatalf("offset round-trip: want 3, got %d", s2.offset)
	}
	// Instance 1 of 2 owns global indices 1,3,5,... — offset 3 maps to 7.
	if g := s2.globalIndex(s2.offset); g != 7 {
		t.Fatalf("global index: want 7, got %d", g)
	}
}

// TestCollectSinkWhenLen pins the first-output signal supervisors time
// recovery by: a length already reached closes at once, a later one closes
// on the append that reaches it, and under parallel sink instances each
// waiter closes once the shared length reaches it, and never before.
func TestCollectSinkWhenLen(t *testing.T) {
	c := NewCollectSink()
	op := c.Factory()()
	emit := func(op Operator) {
		if err := op.ProcessElement(Event{Key: "k"}, nil); err != nil {
			t.Error(err)
		}
	}
	emit(op)
	select {
	case <-c.WhenLen(1):
	default:
		t.Fatal("WhenLen(1) on a sink holding one event is not closed")
	}
	later := c.WhenLen(3)
	emit(op)
	select {
	case <-later:
		t.Fatal("WhenLen(3) closed at length 2")
	default:
	}
	emit(op)
	select {
	case <-later:
	default:
		t.Fatal("WhenLen(3) not closed at length 3")
	}

	c = NewCollectSink()
	const instances, each = 4, 250
	lengths := []int{1, 97, 500, 999, instances * each}
	waiters := make([]<-chan struct{}, len(lengths))
	for i, n := range lengths {
		waiters[i] = c.WhenLen(n)
	}
	beyond := c.WhenLen(instances*each + 1)
	var wg sync.WaitGroup
	for i := 0; i < instances; i++ {
		wg.Add(1)
		go func(op Operator) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				emit(op)
			}
		}(c.Factory()())
	}
	for i, w := range waiters {
		<-w
		if got := c.Len(); got < lengths[i] {
			t.Fatalf("WhenLen(%d) closed at length %d", lengths[i], got)
		}
	}
	wg.Wait()
	select {
	case <-beyond:
		t.Fatalf("WhenLen(%d) closed at length %d", instances*each+1, c.Len())
	default:
	}
}
