package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventtime"
)

// --- Batched exchange -------------------------------------------------------

// TestBatchedKeyedCountEquality runs the parallel keyed count with batching
// enabled and verifies the totals match the unbatched run exactly.
func TestBatchedKeyedCountEquality(t *testing.T) {
	const n, keys = 1000, 7
	run := func(batch int) map[string]int64 {
		b := NewBuilder(Config{Name: "batched-count", MaxBatchSize: batch})
		sink := NewCollectSink()
		b.Source("src", NewSliceSourceFactory(genEvents(n, keys)), WithParallelism(2)).
			KeyBy(func(e Event) string { return e.Key }).
			ProcessWith("count", func() Operator { return &countOperator{} }, 3).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		runJob(t, j)
		totals := map[string]int64{}
		for _, e := range sink.Events() {
			totals[e.Key] += e.Value.(int64)
		}
		return totals
	}
	want := run(0)
	got := run(64)
	if len(want) != keys || len(got) != len(want) {
		t.Fatalf("key counts differ: unbatched=%d batched=%d", len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: unbatched=%d batched=%d", k, v, got[k])
		}
	}
}

// recycle returns a received record batch to the pool, as a receiving
// instance does after processing it.
func recycle(m message) {
	if m.kind == msgRecordBatch {
		clear(*m.batch)
		*m.batch = (*m.batch)[:0]
		batchPool.Put(m.batch)
	}
}

// TestBatchedExchangeFlushesOnControl checks the sender-side invariant: a
// control message forces every open batch out first, so per-channel order is
// record-batches then control, never interleaved.
func TestBatchedExchangeFlushesOnControl(t *testing.T) {
	ch := make(chan message, 16)
	o := newOutEdge(&edge{kind: PartitionForward}, 8, []chan message{ch}, []int{0})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if !o.sendRecord(ctx, Event{Timestamp: int64(i)}) {
			t.Fatal("send failed")
		}
	}
	if len(ch) != 0 {
		t.Fatalf("batch flushed before reaching size, control or idle: %d messages", len(ch))
	}
	if !o.broadcastCtl(ctx, message{kind: msgWatermark, wm: 100}) {
		t.Fatal("ctl send failed")
	}
	first := <-ch
	if first.kind != msgRecordBatch || len(*first.batch) != 3 {
		t.Fatalf("want 3-record batch before control, got kind=%d", first.kind)
	}
	second := <-ch
	if second.kind != msgWatermark || second.wm != 100 {
		t.Fatalf("want watermark after batch, got kind=%d", second.kind)
	}
}

// TestBatchedExchangeFlushesOnSize checks a batch ships as soon as it fills,
// and that a sender out of input ships its partial batch without waiting for
// a control message.
func TestBatchedExchangeFlushesOnSize(t *testing.T) {
	ch := make(chan message, 16)
	o := newOutEdge(&edge{kind: PartitionForward}, 4, []chan message{ch}, []int{0})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		o.sendRecord(ctx, Event{Timestamp: int64(i)})
	}
	if len(ch) != 1 {
		t.Fatalf("full batch not flushed: %d messages queued", len(ch))
	}
	if m := <-ch; m.kind != msgRecordBatch || len(*m.batch) != 4 {
		t.Fatalf("want 4-record batch, got kind=%d", m.kind)
	}
	if !o.flush(ctx, nil) {
		t.Fatal("idle flush failed")
	}
	if m := <-ch; m.kind != msgRecordBatch || len(*m.batch) != 2 {
		t.Fatalf("want the 2-record remainder on an idle flush, got kind=%d", m.kind)
	}
	if !o.flush(ctx, nil) || len(ch) != 0 {
		t.Fatalf("flush with no open batch sent %d messages", len(ch))
	}
}

// TestPausedSourceRecordsArriveWithoutWatermark pauses a source after a few
// records, with no watermark behind them: the records must still reach the
// sink, through an intermediate operator, while the source waits — a batch
// never waits for input its sender does not have.
func TestPausedSourceRecordsArriveWithoutWatermark(t *testing.T) {
	resume := make(chan struct{})
	arrived := make(chan struct{})
	var seen atomic.Int64
	b := NewBuilder(Config{Name: "paused", MaxBatchSize: 64})
	b.Source("src", SourceFunc(func(ctx SourceContext) error {
		if !ctx.CollectBatch(genEvents(3, 2)) || !ctx.Collect(Event{Key: "k", Timestamp: 30}) {
			return nil
		}
		<-resume
		return nil
	})).
		Map("hop", func(e Event) (Event, bool) { return e, true }).
		Sink("out", SinkFunc(func(Event) error {
			if seen.Add(1) == 4 {
				close(arrived)
			}
			return nil
		}))
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Run(context.Background()) }()
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Errorf("records of a paused source stranded: %d of 4 reached the sink", seen.Load())
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRecordPathSteadyStateZeroAllocs drives records and a watermark through
// one instrumented instance — send into an open batch, the sender's idle
// flush, receive and process the batch, the receiver's idle flush, then a
// watermark over the same path — and requires zero allocations per round once
// the pools are warm (checked without the race detector, under which
// sync.Pool drops Puts at random). An allocation per record or per watermark
// raises the GC heap goal with throughput and shows up as peak RSS.
func TestRecordPathSteadyStateZeroAllocs(t *testing.T) {
	ctx := context.Background()
	in := newTestInstance(t, 1, &mapOperator{xform: func(e Event) (Event, bool) { return e, true }})
	reg := in.job.metrics
	in.wmGauge, in.wmLag, in.busyNs = reg.Gauge("wm"), reg.Gauge("lag"), reg.Counter("busy")
	inbox, down := make(chan message, 4), make(chan message, 4)
	up := newOutEdge(&edge{kind: PartitionForward}, 8, []chan message{inbox}, []int{0})
	out := newOutEdge(&edge{kind: PartitionForward}, 8, []chan message{down}, []int{0})
	out.batchSize, out.flushSize, out.flushCtl, out.flushIdle =
		reg.Histogram("size"), reg.Counter("fsize"), reg.Counter("fctl"), reg.Counter("fidle")
	in.outs = []*outEdge{out}
	octx := &opContext{inst: in, runCtx: ctx}
	e := Event{Key: "k", Timestamp: 1, Value: int64(7)} // boxed once, outside the loop
	wm := int64(0)
	round := func() {
		for i := 0; i < 3; i++ {
			up.sendRecord(ctx, e)
		}
		up.flush(ctx, nil)
		if _, err := in.handle(ctx, octx, <-inbox); err != nil {
			t.Fatal(err)
		}
		in.flushOutputs(ctx)
		if m := <-down; m.kind != msgRecordBatch || len(*m.batch) != 3 {
			t.Fatalf("want a 3-record batch downstream, got kind=%d", m.kind)
		} else {
			recycle(m)
		}
		wm++
		up.broadcastCtl(ctx, message{kind: msgWatermark, wm: wm})
		if _, err := in.handle(ctx, octx, <-inbox); err != nil {
			t.Fatal(err)
		}
		if m := <-down; m.kind != msgWatermark || m.wm != wm {
			t.Fatalf("want watermark %d downstream, got kind=%d wm=%d", wm, m.kind, m.wm)
		}
	}
	round() // warm the batch and column pools
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 && !raceEnabled {
		t.Fatalf("record path allocates %.1f times per round; want 0", allocs)
	}
}

// --- Round-robin cursor overflow -------------------------------------------

// TestRoundRobinCursorWrap seeds the rebalance and marker cursors right below
// the wrap point; sends must keep cycling targets instead of producing a
// negative index (the pre-fix signed cursor panicked here).
func TestRoundRobinCursorWrap(t *testing.T) {
	chs := []chan message{make(chan message, 8), make(chan message, 8), make(chan message, 8)}
	o := newOutEdge(&edge{kind: PartitionRebalance}, 1, chs, []int{0, 0, 0})
	o.rr, o.mrr = math.MaxUint64-1, math.MaxUint64-1
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if !o.sendRecord(ctx, Event{Timestamp: int64(i)}) {
			t.Fatalf("send %d failed", i)
		}
	}
	total := 0
	for _, ch := range chs {
		total += len(ch)
	}
	if total != 6 {
		t.Fatalf("lost records across the wrap: delivered %d of 6", total)
	}
	// Each target must have received at least one record over 6 sends on 3
	// targets — a broken cursor would pin or skip targets.
	for i, ch := range chs {
		if len(ch) == 0 {
			t.Fatalf("target %d starved across cursor wrap", i)
		}
	}
	for i := 0; i < 4; i++ {
		if !o.sendMarker(ctx, &latencyMarker{}) {
			t.Fatalf("marker send %d failed", i)
		}
	}
}

// --- Timer cascade ----------------------------------------------------------

// cascadeOp registers a far-future timer per element; when it fires (only at
// drain) it registers a second-stage cleanup timer that must fire within the
// same watermark advancement. The cleanup callback re-registers its own
// identical (ts, key) to exercise the infinite-loop guard.
type cascadeOp struct {
	BaseOperator
}

const cascadeBase = int64(1) << 40

func (o *cascadeOp) ProcessElement(e Event, ctx Context) error {
	ctx.RegisterEventTimeTimer(cascadeBase + e.Timestamp)
	return nil
}

func (o *cascadeOp) OnTimer(ts int64, ctx Context) error {
	if ts < 2*cascadeBase { // first stage: session end
		ctx.Emit(Event{Key: ctx.Key(), Timestamp: ts, Value: "fire"})
		ctx.RegisterEventTimeTimer(ts + 2*cascadeBase)
		return nil
	}
	// Second stage: session cleanup. Re-register the identical timer — the
	// engine must drop it instead of cascading forever.
	ctx.RegisterEventTimeTimer(ts)
	ctx.Emit(Event{Key: ctx.Key(), Timestamp: ts, Value: "cleanup"})
	return nil
}

// TestTimerCascadeFiresAtDrain is the regression test for the single-pass
// timers.due bug: a timer registered during OnTimer with TS <= wm fired only
// on the next watermark — and never fired at drain (wm = MaxWatermark), losing
// final output.
func TestTimerCascadeFiresAtDrain(t *testing.T) {
	const n, keys = 40, 4
	b := NewBuilder(Config{Name: "cascade", WatermarkInterval: 1})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(n, keys)), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		Process("session", func() Operator { return &cascadeOp{} }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	var fires, cleanups int
	for _, e := range sink.Events() {
		switch e.Value.(string) {
		case "fire":
			fires++
		case "cleanup":
			cleanups++
		}
	}
	if fires != n {
		t.Fatalf("want %d first-stage firings, got %d", n, fires)
	}
	if cleanups != n {
		t.Fatalf("cascaded cleanup timers lost at drain: want %d, got %d", n, cleanups)
	}
}

// --- Barrier stash replay ---------------------------------------------------

// closeCountOp forwards elements and counts Close invocations.
type closeCountOp struct {
	BaseOperator
	closes *int
}

func (o *closeCountOp) ProcessElement(e Event, ctx Context) error {
	ctx.Emit(e)
	return nil
}

func (o *closeCountOp) Close(ctx Context) error {
	*o.closes++
	return nil
}

// newTestInstance wires a bare instance (no channels, no outs) so handle can
// be driven message by message, deterministically.
func newTestInstance(t *testing.T, numInputs int, op Operator) *instance {
	t.Helper()
	cfg := Config{Name: "unit"}.withDefaults()
	j := newJob(cfg, &Graph{})
	backend, err := cfg.BackendFactory("op", 0)
	if err != nil {
		t.Fatal(err)
	}
	return &instance{
		job:             j,
		node:            &node{name: "op", parallelism: 1},
		id:              "op-0",
		numInputs:       numInputs,
		op:              op,
		backend:         backend,
		timers:          newTimerService(),
		tracker:         eventtime.NewWatermarkTracker(numInputs),
		inCounter:       j.inCounter("op"),
		outCounter:      j.outCounter("op"),
		barrierArrived:  make([]bool, numInputs),
		channelFinished: make([]bool, numInputs),
	}
}

// TestBarrierStashReplayEOSTerminates drives a two-input instance through a
// barrier alignment in which channel 0 delivers its EOS while blocked: the
// EOS is stashed, and its replay after the barrier completes must terminate
// the instance exactly once. Pre-fix, completeBarrier discarded the replay's
// done result, so the instance ran shutdown twice (double Close, duplicate
// final output).
func TestBarrierStashReplayEOSTerminates(t *testing.T) {
	closes := 0
	in := newTestInstance(t, 2, &closeCountOp{closes: &closes})
	ctx := context.Background()
	octx := &opContext{inst: in, runCtx: ctx}
	b := barrierMark{ID: 1}

	step := func(m message, wantDone bool) {
		t.Helper()
		done, err := in.handle(ctx, octx, m)
		if err != nil {
			t.Fatal(err)
		}
		if done != wantDone {
			t.Fatalf("handle(%+v): done=%v, want %v", m, done, wantDone)
		}
	}

	// Barrier arrives on channel 0; the channel is now blocked.
	step(message{kind: msgBarrier, channel: 0, barrier: b}, false)
	// Post-barrier traffic on the blocked channel is stashed, EOS included.
	one := []Event{{Timestamp: 1}}
	step(message{kind: msgRecordBatch, channel: 0, batch: &one}, false)
	step(message{kind: msgWatermark, channel: 0, wm: eventtime.MaxWatermark}, false)
	step(message{kind: msgEOS, channel: 0, drain: true}, false)
	if len(in.stash) != 3 {
		t.Fatalf("want 3 stashed messages (record, watermark, EOS), got %d", len(in.stash))
	}
	if in.channelFinished[0] {
		t.Fatal("EOS on a blocked channel must not finish the channel before replay")
	}
	// Channel 1 ends without delivering the barrier: it counts as aligned,
	// the barrier completes, and the stash replays — ending with channel 0's
	// EOS, which is now the last open input. handle must report done.
	step(message{kind: msgEOS, channel: 1, drain: true}, true)

	if closes != 1 {
		t.Fatalf("instance closed %d times; want exactly 1", closes)
	}
	if got := in.inCounter.Value(); got != 1 {
		t.Fatalf("stashed record not replayed: in=%d", got)
	}
}

// TestBarrierStashReplaysBatches covers the batched variant: a stashed
// message may now be a whole record batch, and replay must unpack it through
// the normal path.
func TestBarrierStashReplaysBatches(t *testing.T) {
	closes := 0
	in := newTestInstance(t, 2, &closeCountOp{closes: &closes})
	ctx := context.Background()
	octx := &opContext{inst: in, runCtx: ctx}

	step := func(m message, wantDone bool) {
		t.Helper()
		done, err := in.handle(ctx, octx, m)
		if err != nil {
			t.Fatal(err)
		}
		if done != wantDone {
			t.Fatalf("handle: done=%v, want %v", done, wantDone)
		}
	}

	step(message{kind: msgBarrier, channel: 0, barrier: barrierMark{ID: 7}}, false)
	batch := []Event{{Timestamp: 1}, {Timestamp: 2}, {Timestamp: 3}}
	step(message{kind: msgRecordBatch, channel: 0, batch: &batch}, false)
	if len(in.stash) != 1 {
		t.Fatalf("batch not stashed: stash=%d", len(in.stash))
	}
	step(message{kind: msgBarrier, channel: 1, barrier: barrierMark{ID: 7}}, false)
	if got := in.inCounter.Value(); got != 3 {
		t.Fatalf("stashed batch not fully replayed: in=%d, want 3", got)
	}
	step(message{kind: msgEOS, channel: 0, drain: true}, false)
	step(message{kind: msgEOS, channel: 1, drain: true}, true)
	if closes != 1 {
		t.Fatalf("closes=%d, want 1", closes)
	}
}

// TestBatchedBroadcastDeliversAll ensures per-target pending batches on a
// broadcast edge deliver every record to every instance.
func TestBatchedBroadcastDeliversAll(t *testing.T) {
	const n = 50
	b := NewBuilder(Config{Name: "bcast-batched", MaxBatchSize: 16})
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
		t.Fatalf("batched broadcast: want %d events, got %d", n*3, sink.Len())
	}
}
