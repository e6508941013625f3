package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/eventtime"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/state"
)

// batchPool recycles record-batch slices between senders and receivers
// (same process, so a shared pool suffices). Slices are returned with len 0
// and whatever capacity they grew to.
var batchPool = sync.Pool{New: func() any { b := make([]Event, 0, 64); return &b }}

// outEdge is the sender-side view of one logical edge at one upstream
// instance: the downstream inboxes, the receiver-local channel IDs this
// sender occupies at each of them, and the routing policy.
type outEdge struct {
	edge    *edge
	targets []chan message // one per reachable downstream instance
	chIDs   []int          // receiver-local channel index at each target
	// groupToTarget maps a key group to the index in targets (hash edges).
	groupToTarget []int
	numKeyGroups  int
	// rr and mrr are free-running round-robin cursors (rebalance routing and
	// latency-marker forwarding). Unsigned so overflow wraps to 0 instead of
	// going negative — a signed cursor would eventually produce a negative
	// modulus and panic on the target index.
	rr  uint64
	mrr uint64
	// blocked records how long sends on this edge stalled on a full channel —
	// the backpressure signal (§3.3). nil when instrumentation is off, which
	// keeps the hot send path free of clock reads.
	blocked *metrics.Histogram

	// pending holds one open pooled batch per downstream target; a nil entry
	// means no open batch. A batch ships when it holds maxBatch records,
	// before any control message (so it never crosses a watermark, barrier,
	// EOS or marker), and when the sender runs out of input (flush).
	maxBatch int
	pending  []*[]Event
	// batchSize and the flush counters are nil when instrumentation is off.
	batchSize *metrics.Histogram // records per flushed batch
	flushSize *metrics.Counter   // flushes because the batch filled
	flushCtl  *metrics.Counter   // flushes forced by a control message
	flushIdle *metrics.Counter   // flushes because the sender ran out of input
}

// newOutEdge wires the sender side of edge e towards targets, with batches of
// at most maxBatch records (values below 1 mean 1).
func newOutEdge(e *edge, maxBatch int, targets []chan message, chIDs []int) *outEdge {
	return &outEdge{
		edge:     e,
		targets:  targets,
		chIDs:    chIDs,
		maxBatch: max(maxBatch, 1),
		pending:  make([]*[]Event, len(targets)),
	}
}

// sendRecord routes one record into its target's open batch. Returns false if
// the job context ended.
func (o *outEdge) sendRecord(ctx context.Context, e Event) bool {
	switch o.edge.kind {
	case PartitionHash:
		e.Key = o.edge.keySel(e)
		g := state.KeyGroupFor(e.Key, o.numKeyGroups)
		return o.enqueue(ctx, o.groupToTarget[g], e)
	case PartitionBroadcast:
		for t := range o.targets {
			if !o.enqueue(ctx, t, e) {
				return false
			}
		}
		return true
	case PartitionForward:
		return o.enqueue(ctx, 0, e)
	default: // PartitionRebalance
		t := int(o.rr % uint64(len(o.targets)))
		o.rr++
		return o.enqueue(ctx, t, e)
	}
}

// sendRecords routes a slice of records in order, equivalent to calling
// sendRecord on each but with the per-record dispatch amortized: on forward
// edges the slice is appended into the open batch in chunks, and on hash
// edges consecutive records with the same key (key runs) reuse the previous
// record's route instead of re-hashing.
func (o *outEdge) sendRecords(ctx context.Context, events []Event) bool {
	switch o.edge.kind {
	case PartitionForward:
		return o.enqueueRun(ctx, 0, events, false, "")
	case PartitionHash:
		n := len(events)
		for i := 0; i < n; {
			key := o.edge.keySel(events[i])
			t := o.groupToTarget[state.KeyGroupFor(key, o.numKeyGroups)]
			// Extend the run of records selecting the same key: they all
			// route to the same target and are appended in bulk, with the
			// key group hashed once for the whole run.
			j := i + 1
			for j < n && o.edge.keySel(events[j]) == key {
				j++
			}
			if !o.enqueueRun(ctx, t, events[i:j], true, key) {
				return false
			}
			i = j
		}
		return true
	default:
		// Per-record routing: broadcast duplicates every record and
		// rebalance re-routes each one, so there is no run to amortize.
		for i := range events {
			if !o.sendRecord(ctx, events[i]) {
				return false
			}
		}
		return true
	}
}

// enqueue appends one record to target t's open batch.
func (o *outEdge) enqueue(ctx context.Context, t int, e Event) bool {
	b := o.openBatch(t)
	*b = append(*b, e)
	if len(*b) < o.maxBatch {
		return true
	}
	if o.flushSize != nil {
		o.flushSize.Inc()
	}
	return o.flushTarget(ctx, t)
}

// enqueueRun appends run to target t's open batch in chunks, shipping each
// batch that fills. When keyed, every appended record's Key becomes key (hash
// edges stamp the selected key).
func (o *outEdge) enqueueRun(ctx context.Context, t int, run []Event, keyed bool, key string) bool {
	for len(run) > 0 {
		b := o.openBatch(t)
		c := min(o.maxBatch-len(*b), len(run))
		base := len(*b)
		*b = append(*b, run[:c]...)
		if keyed {
			for k := base; k < base+c; k++ {
				(*b)[k].Key = key
			}
		}
		run = run[c:]
		if len(*b) >= o.maxBatch {
			if o.flushSize != nil {
				o.flushSize.Inc()
			}
			if !o.flushTarget(ctx, t) {
				return false
			}
		}
	}
	return true
}

// openBatch returns target t's open batch, taking a pooled one if none is
// open.
func (o *outEdge) openBatch(t int) *[]Event {
	b := o.pending[t]
	if b == nil {
		b = batchPool.Get().(*[]Event)
		// The open batch is sender-owned until flushTarget hands it to the
		// receiver; flush ships it before any control message and whenever
		// the sender runs out of input, so it never outlives the exchange.
		o.pending[t] = b //streamvet:allow poolretain — sender-owned open batch, flushed before control messages and when input runs out
	}
	return b //streamvet:allow poolretain — the sender's own open batch, still held in pending
}

// flushTarget ships target t's open batch, if any.
func (o *outEdge) flushTarget(ctx context.Context, t int) bool {
	b := o.pending[t]
	if b == nil {
		return true
	}
	o.pending[t] = nil
	if o.batchSize != nil {
		o.batchSize.Observe(int64(len(*b)))
	}
	return o.send(ctx, o.targets[t], message{kind: msgRecordBatch, channel: o.chIDs[t], batch: b})
}

// flush ships every open batch, counting the flush on reason (nil when
// instrumentation is off) if there was anything to ship. It runs before any
// control message, so batches never reorder records across watermarks,
// barriers, EOS or markers, and whenever the sender runs out of input, so a
// batch never waits for records its sender does not have.
func (o *outEdge) flush(ctx context.Context, reason *metrics.Counter) bool {
	flushed := false
	for t, b := range o.pending {
		if b == nil {
			continue
		}
		flushed = true
		if !o.flushTarget(ctx, t) {
			return false
		}
	}
	if flushed && reason != nil {
		reason.Inc()
	}
	return true
}

// broadcastCtl sends a control message (watermark, barrier, EOS) to every
// reachable downstream instance on this edge, flushing open batches first so
// per-channel ordering relative to the control message is preserved.
func (o *outEdge) broadcastCtl(ctx context.Context, m message) bool {
	if !o.flush(ctx, o.flushCtl) {
		return false
	}
	for t := range o.targets {
		m.channel = o.chIDs[t]
		if !o.send(ctx, o.targets[t], m) {
			return false
		}
	}
	return true
}

// sendMarker forwards a latency marker to exactly one downstream instance
// (rotating), so marker volume stays proportional to the graph, not to the
// parallelism, while every channel is still sampled over time. Open batches
// flush first so the marker measures the latency a record at the queue tail
// would see.
func (o *outEdge) sendMarker(ctx context.Context, mk *latencyMarker) bool {
	if !o.flush(ctx, o.flushCtl) {
		return false
	}
	t := int(o.mrr % uint64(len(o.targets)))
	o.mrr++
	return o.send(ctx, o.targets[t], message{kind: msgLatencyMarker, channel: o.chIDs[t], marker: mk})
}

// send delivers one message, measuring time blocked on a full channel when
// the edge is instrumented.
func (o *outEdge) send(ctx context.Context, ch chan message, m message) bool {
	if o.blocked == nil {
		return send(ctx, ch, m)
	}
	select {
	case ch <- m:
		return true
	default:
	}
	start := nanotime()
	if !send(ctx, ch, m) {
		return false
	}
	o.blocked.Observe(nanotime() - start)
	return true
}

func send(ctx context.Context, ch chan message, m message) bool {
	// Non-blocking fast path: a buffered channel with room skips the full
	// two-case select, which costs several times a bare channel op.
	select {
	case ch <- m:
		return true
	default:
	}
	select {
	case ch <- m:
		return true
	case <-ctx.Done():
		return false
	}
}

// instance is one parallel operator instance at runtime.
type instance struct {
	job        *Job
	node       *node
	idx        int
	id         string
	inbox      chan message
	numInputs  int
	outs       []*outEdge
	op         Operator
	backend    state.Backend
	timers     *timerService
	tracker    *eventtime.WatermarkTracker
	restore    []restorePayload // snapshot chain to restore (full first), nil if fresh start
	inCounter  *metrics.Counter
	outCounter *metrics.Counter

	// Observability plumbing (nil / zero when Config.Instrument is off, so
	// the hot paths stay branch-and-done).
	queueDepth  *metrics.Gauge     // node.<n>.<i>.queue_depth
	wmGauge     *metrics.Gauge     // node.<n>.<i>.watermark
	wmLag       *metrics.Gauge     // node.<n>.<i>.watermark_lag_ms
	busyNs      *metrics.Counter   // node.<n>.<i>.busy_ns (useful-work time)
	timerNs     *metrics.Counter   // node.<n>.<i>.timer_ns (firing timers, inside busy_ns)
	timersFired *metrics.Counter   // node.<n>.<i>.timers_fired
	latency     *metrics.Histogram // node.<n>.latency_ns (marker end-to-end)
	alignNs     *metrics.Histogram // node.<n>.align_ns (barrier alignment)
	alignStart  int64              // nanotime() stamp at first barrier arrival
	tracer      *obsv.Tracer
	batchSpan   *obsv.Span // open operator.process span, record-batch scoped
	batchSize   int64
	alignSpan   *obsv.Span

	// Barrier alignment state.
	pendingBarrier  *barrierMark
	barrierArrived  []bool
	barrierCount    int
	stash           []message
	channelFinished []bool
	finishedCount   int
	// nonDrainStop records that at least one input ended without draining
	// (stop-with-savepoint): the instance then terminates without firing
	// open windows or emitting Close output.
	nonDrainStop bool
}

// opContext implements Context for one instance; reused across callbacks.
type opContext struct {
	inst       *instance
	runCtx     context.Context
	currentKey string
	emitErr    error
}

func (c *opContext) Emit(e Event) {
	for _, o := range c.inst.outs {
		if !o.sendRecord(c.runCtx, e) {
			c.emitErr = c.runCtx.Err()
			return
		}
	}
	c.inst.outCounter.Inc()
}

// EmitBatch implements BatchContext: events go downstream in order, exactly
// as repeated Emit calls would send them, but the routing dispatch and the
// output counter are amortized over the whole slice.
func (c *opContext) EmitBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	for _, o := range c.inst.outs {
		if !o.sendRecords(c.runCtx, events) {
			c.emitErr = c.runCtx.Err()
			return
		}
	}
	c.inst.outCounter.Add(int64(len(events)))
}

func (c *opContext) Key() string { return c.currentKey }

// SetKey implements BatchContext. The key is scoped lazily: State()
// synchronizes the backend's current key on every call, so a plain SetKey is
// two word writes and stateless operators never pay the key hash.
func (c *opContext) SetKey(key string) { c.currentKey = key }

func (c *opContext) State() state.Backend {
	c.inst.backend.SetCurrentKey(c.currentKey)
	return c.inst.backend
}

func (c *opContext) RegisterEventTimeTimer(ts int64) { c.inst.timers.register(ts, c.currentKey) }
func (c *opContext) DeleteEventTimeTimer(ts int64)   { c.inst.timers.unregister(ts, c.currentKey) }
func (c *opContext) CurrentWatermark() int64         { return c.inst.tracker.Current() }
func (c *opContext) InstanceIndex() int              { return c.inst.idx }
func (c *opContext) Parallelism() int                { return c.inst.node.parallelism }
func (c *opContext) Logger() *log.Logger             { return c.inst.job.logger }

// run is the instance main loop.
func (in *instance) run(ctx context.Context) error {
	octx := &opContext{inst: in, runCtx: ctx}

	if len(in.restore) > 0 {
		if err := in.restoreChain(); err != nil {
			return fmt.Errorf("%s: %w", in.id, err)
		}
		in.restore = nil
	}
	if err := in.op.Open(octx); err != nil {
		return fmt.Errorf("%s: open: %w", in.id, err)
	}
	lifeSpan := in.tracer.Begin("instance.run", in.node.name, in.id)
	defer func() {
		in.closeBatchSpan()
		lifeSpan.End()
	}()

	for {
		// Non-blocking fast path first: under sustained load the inbox is
		// rarely empty, and a bare buffered receive is several times cheaper
		// than the two-case select. Cancellation is still observed promptly —
		// once the job context ends, senders stop and the inbox drains to the
		// blocking select below.
		var m message
		var ok bool
		select {
		case m = <-in.inbox:
			ok = true
		default:
		}
		if !ok {
			// Out of input: ship the open output batches before waiting, so
			// no record downstream waits for input this instance lacks.
			if !in.flushOutputs(ctx) {
				return ctx.Err()
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case m = <-in.inbox:
			}
		}
		if in.queueDepth != nil {
			in.queueDepth.Set(int64(len(in.inbox)))
		}
		// busyNs accumulates only time spent handling messages — inbox
		// waits are excluded — giving the DS2-style "true" (useful-work)
		// processing rate the scaling policy divides the input rate by.
		var busyStart int64
		if in.busyNs != nil {
			busyStart = nanotime()
		}
		done, err := in.handle(ctx, octx, m)
		if in.busyNs != nil {
			in.busyNs.Add(nanotime() - busyStart)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", in.id, err)
		}
		if done {
			return nil
		}
	}
}

// flushOutputs ships every open output batch. The time counts as busy, like
// any other send.
func (in *instance) flushOutputs(ctx context.Context) bool {
	var start int64
	if in.busyNs != nil {
		start = nanotime()
	}
	for _, o := range in.outs {
		if !o.flush(ctx, o.flushIdle) {
			return false
		}
	}
	if in.busyNs != nil {
		in.busyNs.Add(nanotime() - start)
	}
	return true
}

// handle dispatches one message; done=true once all inputs are exhausted and
// shutdown is complete.
func (in *instance) handle(ctx context.Context, octx *opContext, m message) (bool, error) {
	// Aligned exactly-once barriers block already-aligned channels: their
	// records, watermarks and EOS markers are stashed until the barrier
	// completes. (An EOS processed ahead of the stash would advance event
	// time past records the snapshot has not yet seen replayed.)
	if in.pendingBarrier != nil && m.kind != msgBarrier && in.barrierArrived[m.channel] {
		in.stash = append(in.stash, m)
		return false, nil
	}

	switch m.kind {
	case msgRecordBatch:
		return false, in.processBatch(octx, m.batch)

	case msgWatermark:
		in.closeBatchSpan()
		return false, in.advanceWatermark(ctx, octx, m.channel, m.wm)

	case msgBarrier:
		in.closeBatchSpan()
		return in.handleBarrier(ctx, octx, m.channel, m.barrier)

	case msgEOS:
		in.closeBatchSpan()
		return in.handleEOS(ctx, octx, m.channel, m.drain)

	case msgLatencyMarker:
		return false, in.handleMarker(ctx, m.marker)

	default:
		// Fail loudly: a silently dropped message kind (a future msgKind this
		// switch does not know) would wedge watermark progress or barrier
		// alignment with no trace. streamvet's msgexhaustive analyzer enforces
		// that this switch stays total.
		return false, fmt.Errorf("unhandled message kind %d on channel %d", m.kind, m.channel)
	}
}

// processBatch runs one record batch through the operator — one ProcessBatch
// call on the batch itself when the operator is a BatchOperator, one
// ProcessElement per record otherwise — then recycles the batch slice.
func (in *instance) processBatch(octx *opContext, b *[]Event) error {
	n := int64(len(*b))
	in.inCounter.Add(n)
	if in.tracer != nil {
		if in.batchSpan == nil {
			in.batchSpan = in.tracer.Begin("operator.process", in.node.name, in.id)
		}
		in.batchSize += n
	}
	var err error
	if bo, ok := in.op.(BatchOperator); ok {
		err = bo.ProcessBatch(*b, octx)
	} else {
		for _, e := range *b {
			octx.currentKey = e.Key
			in.backend.SetCurrentKey(e.Key)
			if err = in.op.ProcessElement(e, octx); err != nil || octx.emitErr != nil {
				break
			}
		}
	}
	clear(*b)
	*b = (*b)[:0]
	batchPool.Put(b)
	if err != nil {
		return err
	}
	return octx.emitErr
}

// handleMarker records the latency a marker accumulated and forwards a fresh
// marker downstream. Markers are invisible to operators, so they can never
// perturb window, CEP or user state.
func (in *instance) handleMarker(ctx context.Context, mk *latencyMarker) error {
	now := nanotime()
	if in.latency != nil {
		in.latency.Observe(now - mk.origin)
		in.job.metrics.Histogram("edge." + mk.from + "." + in.node.name + ".hop_ns").
			Observe(now - mk.hopped)
	}
	if len(in.outs) == 0 {
		return nil
	}
	fwd := &latencyMarker{origin: mk.origin, hopped: now, from: in.node.name, source: mk.source}
	for _, o := range in.outs {
		if !o.sendMarker(ctx, fwd) {
			return ctx.Err()
		}
	}
	return nil
}

// closeBatchSpan ends the open record-batch span, stamping how many records
// it covered. Batches are delimited by control messages (watermarks,
// barriers, EOS), so span volume is bounded by control frequency, not record
// rate.
func (in *instance) closeBatchSpan() {
	if in.batchSpan == nil {
		return
	}
	in.batchSpan.SetInt("records", in.batchSize)
	in.batchSpan.End()
	in.batchSpan = nil
	in.batchSize = 0
}

func (in *instance) advanceWatermark(ctx context.Context, octx *opContext, channel int, wm int64) error {
	combined, advanced := in.tracker.Update(channel, wm)
	if !advanced {
		return nil
	}
	return in.emitWatermarkProgress(ctx, octx, combined)
}

// emitWatermarkProgress fires due timers, notifies the operator, and forwards
// the watermark downstream.
func (in *instance) emitWatermarkProgress(ctx context.Context, octx *opContext, wm int64) error {
	if in.wmGauge != nil && wm != eventtime.MaxWatermark {
		in.wmGauge.Set(wm)
		in.wmLag.Set(eventtime.Lag(in.job.maxEmittedTs(), wm))
	}
	// Fire due timers until none remain: an OnTimer callback may register
	// further timers at or below wm (cascades, e.g. session cleanup), which
	// must fire within this same watermark advancement — at drain
	// (MaxWatermark) there is no later watermark to catch them. The timer
	// service drops a re-registration of a timer this advance already
	// popped, so a callback re-registering its own (ts, key) cannot loop.
	var start int64
	if in.timerNs != nil {
		start = nanotime()
	}
	err := in.fireTimers(octx, wm)
	in.timers.endAdvance()
	if in.timerNs != nil {
		in.timerNs.Add(nanotime() - start)
	}
	if err != nil {
		return err
	}
	if err := in.op.OnWatermark(wm, octx); err != nil {
		return err
	}
	if octx.emitErr != nil {
		return octx.emitErr
	}
	for _, o := range in.outs {
		if !o.broadcastCtl(ctx, message{kind: msgWatermark, wm: wm}) {
			return ctx.Err()
		}
	}
	return nil
}

// fireTimers fires every timer due at wm, cascades included.
func (in *instance) fireTimers(octx *opContext, wm int64) error {
	for {
		due := in.timers.due(wm)
		if len(due) == 0 {
			return nil
		}
		for _, t := range due {
			octx.currentKey = t.Key
			in.backend.SetCurrentKey(t.Key)
			if err := in.op.OnTimer(t.TS, octx); err != nil {
				return err
			}
			if octx.emitErr != nil {
				return octx.emitErr
			}
		}
		if in.timersFired != nil {
			in.timersFired.Add(int64(len(due)))
		}
	}
}

func (in *instance) handleBarrier(ctx context.Context, octx *opContext, channel int, b barrierMark) (bool, error) {
	if in.pendingBarrier == nil {
		pb := b
		in.pendingBarrier = &pb
		in.barrierCount = 0
		if in.alignNs != nil {
			in.alignStart = nanotime()
		}
		if in.tracer != nil {
			in.alignSpan = in.tracer.Begin("barrier.align", in.node.name, in.id).
				SetInt("checkpoint", b.ID)
		}
		for i := range in.barrierArrived {
			in.barrierArrived[i] = in.channelFinished[i]
			if in.barrierArrived[i] {
				in.barrierCount++
			}
		}
	}
	if b.ID != in.pendingBarrier.ID {
		return false, fmt.Errorf("overlapping checkpoints %d and %d", in.pendingBarrier.ID, b.ID)
	}
	if !in.barrierArrived[channel] {
		in.barrierArrived[channel] = true
		in.barrierCount++
	}
	if in.barrierCount < in.numInputs {
		return false, nil
	}
	return in.completeBarrier(ctx, octx)
}

// completeBarrier snapshots, acks, forwards the barrier, and replays the
// stash. done=true when a stashed terminal message (the EOS of the last open
// channel) ended the input during replay — callers must propagate it, or the
// instance would outlive its inputs and shut down twice.
func (in *instance) completeBarrier(ctx context.Context, octx *opContext) (bool, error) {
	b := *in.pendingBarrier
	if in.alignNs != nil {
		in.alignNs.Observe(nanotime() - in.alignStart)
	}
	if in.alignSpan != nil {
		in.alignSpan.SetInt("stashed", int64(len(in.stash)))
		in.alignSpan.End()
		in.alignSpan = nil
	}
	in.snapshotAndAck(ctx, b)
	for _, o := range in.outs {
		if !o.broadcastCtl(ctx, message{kind: msgBarrier, barrier: b}) {
			return false, ctx.Err()
		}
	}
	in.pendingBarrier = nil
	stash := in.stash
	in.stash = nil
	for _, sm := range stash {
		done, err := in.handle(ctx, octx, sm)
		if err != nil {
			return false, err
		}
		if done {
			// Termination requires an EOS from every channel, and EOS is the
			// last message any channel sends, so nothing can remain stashed.
			return true, nil
		}
	}
	return false, nil
}

// snapshotAndAck captures the instance's state for checkpoint b. A failure
// at any step (state image, timers, custom payload, encode, store I/O) never
// fails the instance: it aborts the checkpoint via a failed ack and the job
// keeps processing — the next barrier retries with a fresh checkpoint.
func (in *instance) snapshotAndAck(ctx context.Context, b barrierMark) {
	var start int64
	instrumented := in.job.cfg.Instrument
	if instrumented {
		start = nanotime()
	}
	span := in.tracer.Begin("snapshot", in.node.name, in.id).SetInt("checkpoint", b.ID)
	data, files, err := in.captureSnapshot(b)
	if err != nil {
		span.SetAttr("error", err.Error()).End()
		in.job.ack(ctx, b.ID, in.id, 0, nil, err)
		return
	}
	if instrumented {
		reg := in.job.metrics
		reg.Histogram("node." + in.node.name + ".snapshot_ns").Observe(nanotime() - start)
		reg.Histogram("node." + in.node.name + ".snapshot_bytes").Observe(int64(len(data)))
	}
	span.SetInt("bytes", int64(len(data)))
	span.End()
	in.job.saveAndAck(ctx, b, in.id, data, files)
}

// captureSnapshot serialises the instance's contribution to checkpoint b:
// a delta against b.DeltaBase when the barrier asks for one and the
// backend can deliver it, the backend's immutable files for file-native
// checkpoints, or the full serialised image otherwise. The returned names
// are files linked into the store; they ride the ack into the checkpoint
// metadata so GC and chain verification can account for them.
func (in *instance) captureSnapshot(b barrierMark) ([]byte, []string, error) {
	var snap instanceSnapshot
	var files []string
	captured := false
	if b.DeltaBase > 0 {
		if db, ok := in.backend.(state.DeltaBackend); ok {
			delta, dok, err := db.SnapshotDelta(b.DeltaBase, b.ID)
			if err != nil {
				return nil, nil, fmt.Errorf("snapshot delta: %w", err)
			}
			if dok {
				snap.State = delta
				snap.DeltaBase = b.DeltaBase
				captured = true
			}
		}
	}
	if !captured && in.job.cfg.LSMNativeSnapshots && !b.Savepoint {
		if fb, ok := in.backend.(state.FileBackend); ok {
			var err error
			files, err = in.captureFiles(fb, b, &snap)
			if err != nil {
				return nil, nil, err
			}
			captured = true
		}
	}
	if !captured {
		img, err := in.backend.Snapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot state: %w", err)
		}
		snap.State = img
	}
	if snap.DeltaBase == 0 {
		// Any full capture — image or file set — is a valid base for later
		// deltas (savepoints included: they are full payloads by construction).
		if db, ok := in.backend.(state.DeltaBackend); ok {
			db.MarkFull(b.ID)
		}
	}
	timerImg, err := in.timers.snapshot()
	if err != nil {
		return nil, nil, err
	}
	snap.Timers = timerImg
	if s, ok := in.op.(Snapshotter); ok {
		custom, err := s.SnapshotCustom()
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot custom: %w", err)
		}
		snap.Custom = custom
	}
	data, err := encodeInstanceSnapshot(snap)
	if err != nil {
		return nil, nil, err
	}
	return data, files, nil
}

// captureFiles checkpoints a file-native backend by reference: the backend's
// immutable files are published into a linking store — hard links when local,
// so files shared with earlier checkpoints cost zero bytes — or embedded in
// the payload when the store cannot link local files.
func (in *instance) captureFiles(fb state.FileBackend, b barrierMark, snap *instanceSnapshot) ([]string, error) {
	paths, err := fb.SnapshotFiles()
	if err != nil {
		return nil, fmt.Errorf("snapshot files: %w", err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = in.id + "/" + filepath.Base(p)
	}
	snap.Files = names
	if ls, ok := in.job.cfg.SnapshotStore.(FileLinkingStore); ok {
		linked := true
		for i, p := range paths {
			if err := ls.LinkFile(b.ID, names[i], p); err != nil {
				if errors.Is(err, ErrFileLinkUnsupported) {
					linked = false
					break
				}
				return nil, fmt.Errorf("link %s: %w", names[i], err)
			}
		}
		if linked {
			return names, nil
		}
	}
	// The store cannot link local files: carry the bytes in the payload.
	snap.FileData = make(map[string][]byte, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("embed %s: %w", names[i], err)
		}
		snap.FileData[names[i]] = data
	}
	return nil, nil
}

// restoreChain rebuilds instance state from a restore chain: the oldest
// payload is a full capture (serialised image or file-native), every later
// payload a delta replayed on top. Timers and custom operator state are
// always stored full, so they come from the newest payload only.
func (in *instance) restoreChain() error {
	last := len(in.restore) - 1
	for i, p := range in.restore {
		snap, err := decodeInstanceSnapshot(p.data)
		if err != nil {
			return err
		}
		if i == 0 {
			if len(snap.Files) > 0 {
				if err := in.restoreFiles(p.cp, snap); err != nil {
					return fmt.Errorf("checkpoint %d: restore files: %w", p.cp, err)
				}
			} else if len(snap.State) > 0 {
				if err := in.backend.Restore(snap.State); err != nil {
					return fmt.Errorf("restore state: %w", err)
				}
			}
		} else {
			db, ok := in.backend.(state.DeltaBackend)
			if !ok {
				return fmt.Errorf("checkpoint %d is a delta but backend %T cannot replay deltas", p.cp, in.backend)
			}
			if err := db.ApplyDelta(snap.State); err != nil {
				return fmt.Errorf("replay delta %d: %w", p.cp, err)
			}
		}
		if i != last {
			continue
		}
		if err := in.timers.restore(snap.Timers); err != nil {
			return err
		}
		if s, ok := in.op.(Snapshotter); ok && len(snap.Custom) > 0 {
			if err := s.RestoreCustom(snap.Custom); err != nil {
				return fmt.Errorf("restore custom: %w", err)
			}
		}
	}
	return nil
}

// restoreFiles rebuilds a file-native full snapshot: store-linked files
// resolve to local paths the backend adopts directly; embedded file bytes
// (stores that cannot link) materialise in a scratch dir first.
func (in *instance) restoreFiles(cp int64, snap instanceSnapshot) error {
	fb, ok := in.backend.(state.FileBackend)
	if !ok {
		return fmt.Errorf("snapshot references backend files but backend %T cannot adopt them", in.backend)
	}
	if len(snap.FileData) > 0 {
		tmp, err := os.MkdirTemp("", "restore-files-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		paths := make([]string, 0, len(snap.Files))
		for _, name := range snap.Files {
			data, ok := snap.FileData[name]
			if !ok {
				return fmt.Errorf("embedded file %q missing from payload", name)
			}
			p := filepath.Join(tmp, filepath.Base(name))
			if err := os.WriteFile(p, data, 0o644); err != nil {
				return err
			}
			paths = append(paths, p)
		}
		return fb.RestoreFromFiles(paths)
	}
	ls, ok := in.job.cfg.SnapshotStore.(FileLinkingStore)
	if !ok {
		return fmt.Errorf("snapshot references linked files but store %T cannot resolve them", in.job.cfg.SnapshotStore)
	}
	paths := make([]string, 0, len(snap.Files))
	for _, name := range snap.Files {
		p, err := ls.LinkedPath(cp, name)
		if err != nil {
			return err
		}
		paths = append(paths, p)
	}
	return fb.RestoreFromFiles(paths)
}

func (in *instance) handleEOS(ctx context.Context, octx *opContext, channel int, drain bool) (bool, error) {
	if in.channelFinished[channel] {
		return false, nil
	}
	in.channelFinished[channel] = true
	in.finishedCount++
	if !drain {
		in.nonDrainStop = true
	}

	// A finished draining channel can never hold back progress again; a
	// stop-with-savepoint end must NOT advance event time, or open windows
	// would fire with partial contents that the savepoint also captured.
	if drain && !in.nonDrainStop {
		if err := in.advanceWatermark(ctx, octx, channel, eventtime.MaxWatermark); err != nil {
			return false, err
		}
	}
	// A finished channel cannot deliver a pending barrier: count it as
	// aligned.
	if in.pendingBarrier != nil && !in.barrierArrived[channel] {
		in.barrierArrived[channel] = true
		in.barrierCount++
		if in.barrierCount >= in.numInputs {
			done, err := in.completeBarrier(ctx, octx)
			if err != nil {
				return false, err
			}
			if done {
				// A stashed EOS replayed above already closed the instance.
				return true, nil
			}
		}
	}
	if in.finishedCount < in.numInputs {
		return false, nil
	}
	// All inputs exhausted. On a draining end, flush final output; on a
	// stop-with-savepoint, terminate silently — the snapshot holds the
	// in-progress state.
	if !in.nonDrainStop {
		octx.currentKey = ""
		if err := in.op.Close(octx); err != nil {
			return false, err
		}
		if octx.emitErr != nil {
			return false, octx.emitErr
		}
	}
	for _, o := range in.outs {
		if !o.broadcastCtl(ctx, message{kind: msgEOS, drain: !in.nonDrainStop}) {
			return false, ctx.Err()
		}
	}
	return true, nil
}
