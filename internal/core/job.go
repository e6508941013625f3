package core

import (
	"context"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventtime"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/state"
)

// Job is a compiled dataflow ready to run. A Job value runs at most once;
// build a new one (optionally restoring from a checkpoint) to run again.
type Job struct {
	cfg   Config
	graph *Graph

	logger  *log.Logger
	metrics *metrics.Registry

	sources   []*sourceInstance
	instances []*instance

	// Checkpointing. A request starts its checkpoint under inflight.mu in
	// the caller's goroutine and publishes the barrier here; each source
	// emits it at its next Collect or CollectBatch, or before its EOS. Each
	// participant acks in its own goroutine, and the last ack sends the
	// checkpoint to settle, which completes or aborts it in the store.
	barrier  atomic.Pointer[barrierMark]
	inflight *checkpointInflight
	// settled holds two: while a checkpoint settles only a savepoint can
	// start, and nothing starts after a savepoint.
	settled   chan settlement
	restoreCP int64 // checkpoint to restore from; <0 means fresh

	started atomic.Bool
	// physDone flips once buildPhysical has wired instances, publishing the
	// instance slices to concurrent readers (the introspection server).
	physDone atomic.Bool
	cancel   context.CancelFunc
	// failCh carries an externally injected failure (Job.Fail); Run returns
	// it after shutdown, so fault injectors can crash a job mid-flight.
	failCh chan error

	// LastCheckpoint is the ID of the most recently completed checkpoint.
	lastCheckpoint atomic.Int64
	// savepointStopped flips when a source stops at a savepoint barrier,
	// distinguishing that exit from a natural end-of-stream once Run
	// returns.
	savepointStopped atomic.Bool
	// abortedCP counts checkpoints abandoned because an instance's snapshot
	// failed; saveFailures counts the individual failed snapshot attempts.
	// The job keeps running through both — the next barrier subsumes the
	// aborted checkpoint.
	abortedCP    atomic.Int64
	saveFailures atomic.Int64
}

type checkpointInflight struct {
	mu sync.Mutex
	// open admits requests: set once Run has restored the job, cleared at
	// the first source's EOS and when Run returns.
	open bool
	// seq is the last checkpoint ID handed out.
	seq int64
	// active marks checkpoint id as awaiting acks from pending; settling
	// counts fully acked checkpoints settle has yet to finish.
	active   bool
	id       int64
	pending  map[string]bool
	settling int
	// failed names the first participant whose snapshot failed ("" = none).
	failed string
	bytes  int64
	save   bool
	// deltaBase is the completed checkpoint this one is a delta of (0 =
	// full); files accumulates linked backend files from instance acks.
	deltaBase int64
	files     []string
	// started and span time/trace the in-flight checkpoint (observability).
	// started is a nanotime() stamp.
	started int64
	span    *obsv.Span
	// waiters are closed when a checkpoint with at least the given ID
	// completes (a later checkpoint subsumes earlier aborted ones).
	waiters map[int64][]chan struct{}
	// pendingSave records a savepoint request that arrived while another
	// checkpoint awaited acks. It starts at the last ack of the checkpoint
	// then in flight, so an accepted savepoint is never coalesced away.
	pendingSave bool
	// published is closed, and replaced, each time a barrier is published:
	// a source that reaches its EOS with a savepoint held waits on it.
	published chan struct{}
	// deltaChainLen counts completed delta checkpoints since the last
	// completed full one; a full snapshot is forced once the chain reaches
	// FullSnapshotEvery-1.
	deltaChainLen int
}

func newJob(cfg Config, g *Graph) *Job {
	j := &Job{
		cfg:       cfg,
		graph:     g,
		logger:    log.New(io.Discard, "", 0),
		metrics:   metrics.NewRegistry(),
		inflight:  &checkpointInflight{waiters: make(map[int64][]chan struct{}), published: make(chan struct{})},
		settled:   make(chan settlement, 2),
		restoreCP: -1,
		failCh:    make(chan error, 1),
	}
	j.lastCheckpoint.Store(-1)
	return j
}

// SetLogger directs job logging to the given writer.
func (j *Job) SetLogger(w io.Writer) {
	j.logger = log.New(w, "["+j.cfg.Name+"] ", log.Lmicroseconds)
}

// Metrics returns the job metrics registry.
func (j *Job) Metrics() *metrics.Registry { return j.metrics }

// inCounter and outCounter resolve a node's record counters once at wiring
// time; instances hold the pointers so the per-record path is a single
// atomic increment, not a registry lookup.
func (j *Job) inCounter(node string) *metrics.Counter {
	return j.metrics.Counter("node." + node + ".in")
}

func (j *Job) outCounter(node string) *metrics.Counter {
	return j.metrics.Counter("node." + node + ".out")
}

// RestoreFrom makes the next Run restore all instances from the given
// completed checkpoint. Must be called before Run.
func (j *Job) RestoreFrom(checkpointID int64) { j.restoreCP = checkpointID }

// NumKeyGroups returns the key-group fan-out of the job's keyed state, the
// count a rescale of its checkpoints must redistribute by.
func (j *Job) NumKeyGroups() int { return state.DefaultKeyGroups }

// LastCheckpoint returns the most recently completed checkpoint ID, or -1.
func (j *Job) LastCheckpoint() int64 { return j.lastCheckpoint.Load() }

// SavepointStopped reports whether a stop-with-savepoint barrier halted the
// job's sources. Meaningful once Run has returned: true means the
// exit was a savepoint stop (no final watermark, open windows preserved in
// state), false means the stream ended naturally or the run failed. Note the
// savepoint itself may still have aborted (snapshot failure) — check
// LastCheckpoint or the store for what actually completed.
func (j *Job) SavepointStopped() bool { return j.savepointStopped.Load() }

// WhenCheckpoint returns a channel closed once a checkpoint with ID >= id
// completes. Aborted checkpoints are subsumed by the next completed one, so
// waiting on an aborted ID still unblocks. The channel never closes if the
// job stops before any such checkpoint completes.
func (j *Job) WhenCheckpoint(id int64) <-chan struct{} {
	ch := make(chan struct{})
	j.inflight.mu.Lock()
	if j.lastCheckpoint.Load() >= id {
		j.inflight.mu.Unlock()
		close(ch)
		return ch
	}
	j.inflight.waiters[id] = append(j.inflight.waiters[id], ch)
	j.inflight.mu.Unlock()
	return ch
}

// notifyCheckpoint releases every waiter registered for a checkpoint ID the
// completed checkpoint covers. Channels close outside the lock.
func (j *Job) notifyCheckpoint(completed int64) {
	var release []chan struct{}
	j.inflight.mu.Lock()
	for id, ws := range j.inflight.waiters {
		if id <= completed {
			release = append(release, ws...)
			delete(j.inflight.waiters, id)
		}
	}
	j.inflight.mu.Unlock()
	for _, w := range release {
		close(w)
	}
}

// AbortedCheckpoints returns how many checkpoints were aborted (and subsumed
// by a later one) because an instance snapshot failed.
func (j *Job) AbortedCheckpoints() int64 { return j.abortedCP.Load() }

// SnapshotSaveFailures returns how many individual instance snapshot
// attempts failed (after retries).
func (j *Job) SnapshotSaveFailures() int64 { return j.saveFailures.Load() }

// sourceInstance is one parallel source instance at runtime.
type sourceInstance struct {
	job        *Job
	node       *node
	idx        int
	id         string
	outs       []*outEdge
	src        Source
	gen        eventtime.WatermarkGenerator
	restore    []byte
	outCounter *metrics.Counter
	// markerEvery injects a latency marker every N collected records
	// (0 = markers off).
	markerEvery int
	tracer      *obsv.Tracer
	// maxTs is the largest timestamp this instance has emitted, the reference
	// operators measure watermark lag against. Published only when
	// Config.Instrument is on (instrumented); MinWatermark until then.
	maxTs        atomic.Int64
	instrumented bool
}

// maxEmittedTs returns the largest timestamp any source instance has emitted
// (MinWatermark before the first record or without instrumentation).
func (j *Job) maxEmittedTs() int64 {
	m := int64(eventtime.MinWatermark)
	for _, s := range j.sources {
		m = max(m, s.maxTs.Load())
	}
	return m
}

// sourceCtx implements SourceContext.
type sourceCtx struct {
	si      *sourceInstance
	runCtx  context.Context
	stopped bool
	// savepointStop records that a savepoint barrier halted the source
	// mid-stream: the subsequent EOS must not drain (no final watermark, no
	// window flushes) so a restore resumes exactly.
	savepointStop bool
	// lastBarrier is the last published barrier this source emitted.
	lastBarrier *barrierMark
	count       int
	lastWM      int64
}

// flush ships every open batch as a Collect or CollectBatch call returns: the
// source may not collect again for a while (pacing, an idle input, the end of
// the stream), and a batch must never wait for input its sender lacks.
func (c *sourceCtx) flush() bool {
	for _, o := range c.si.outs {
		if !o.flush(c.runCtx, o.flushIdle) {
			c.stopped = true
			return false
		}
	}
	return true
}

func (c *sourceCtx) InstanceIndex() int { return c.si.idx }
func (c *sourceCtx) Parallelism() int   { return c.si.node.parallelism }

func (c *sourceCtx) Stopped() bool {
	if c.stopped {
		return true
	}
	select {
	case <-c.runCtx.Done():
		c.stopped = true
	default:
	}
	return c.stopped
}

func (c *sourceCtx) EmitWatermark(wm int64) {
	if wm <= c.lastWM && c.lastWM != eventtime.MinWatermark {
		return
	}
	c.lastWM = wm
	for _, o := range c.si.outs {
		if !o.broadcastCtl(c.runCtx, message{kind: msgWatermark, wm: wm}) {
			c.stopped = true
			return
		}
	}
}

// Collect emits one event: a CollectBatch of one.
func (c *sourceCtx) Collect(e Event) bool { return c.CollectBatch([]Event{e}) }

// CollectBatch emits events in order with the per-record dispatch amortized:
// the stop and barrier checks run once per call (see the SourceContext doc
// for the offset-granularity consequence), records go downstream through the
// bulk routing path, and the periodic-obligation modulo checks run once per
// chunk. The watermark generator still observes every record, and a
// punctuated watermark splits the chunk so it lands between the same two
// records as if each record were collected alone. Open batches ship before
// the call returns.
func (c *sourceCtx) CollectBatch(events []Event) bool {
	// Barrier injection point: a published barrier is emitted *before* the
	// next element so the snapshot offset excludes it.
	if c.Stopped() || !c.injectBarrier() {
		return false
	}
	for len(events) > 0 {
		// Chunk up to the next per-record obligation boundary so each
		// boundary fires exactly once, right where the per-record path would
		// fire it.
		n := len(events)
		if c.si.gen != nil {
			if iv := c.si.node.wmInterval; iv > 0 {
				if k := iv - c.count%iv; k < n {
					n = k
				}
			}
		}
		if me := c.si.markerEvery; me > 0 {
			if k := me - c.count%me; k < n {
				n = k
			}
		}
		if ce := c.si.job.cfg.CheckpointEvery; ce > 0 {
			if k := ce - c.count%ce; k < n {
				n = k
			}
		}
		chunk := events[:n]
		sent := 0
		if c.si.gen != nil {
			for i := 0; i < n; i++ {
				if wm := c.si.gen.OnEvent(chunk[i].Timestamp); wm != eventtime.MinWatermark {
					if !c.sendSlice(chunk[sent : i+1]) {
						return false
					}
					sent = i + 1
					c.EmitWatermark(wm)
					if c.stopped {
						return false
					}
				}
			}
		}
		if !c.sendSlice(chunk[sent:]) {
			return false
		}
		c.count += n
		if c.si.gen != nil {
			if iv := c.si.node.wmInterval; iv > 0 && c.count%iv == 0 {
				if wm := c.si.gen.OnPeriodic(); wm != eventtime.MinWatermark {
					c.EmitWatermark(wm)
					if c.stopped {
						return false
					}
				}
			}
		}
		if me := c.si.markerEvery; me > 0 && c.count%me == 0 {
			now := nanotime()
			mk := &latencyMarker{origin: now, hopped: now, from: c.si.node.name, source: c.si.id}
			for _, o := range c.si.outs {
				if !o.sendMarker(c.runCtx, mk) {
					c.stopped = true
					return false
				}
			}
		}
		if ce := c.si.job.cfg.CheckpointEvery; ce > 0 && c.count%ce == 0 {
			c.si.job.requestCheckpoint(false)
		}
		events = events[n:]
	}
	return c.flush()
}

// injectBarrier emits the published barrier unless this source already has,
// and reports whether the source may go on: false once a savepoint barrier
// stopped it or the job was cancelled.
func (c *sourceCtx) injectBarrier() bool {
	b := c.si.job.barrier.Load()
	if b == nil || b == c.lastBarrier {
		return true
	}
	c.lastBarrier = b
	if !c.si.emitBarrier(c.runCtx, *b) {
		c.stopped = true
		return false
	}
	if b.Savepoint {
		c.stopped = true
		c.savepointStop = true
		return false
	}
	return true
}

// finalBarrier runs before the source's EOS. Under the lock requests take,
// it closes the job to new ones; it then emits the barrier they published
// and waits for a savepoint held behind an in-flight checkpoint. So every
// request accepted before this EOS is emitted before it. It returns false
// only when the job was cancelled.
func (c *sourceCtx) finalBarrier() bool {
	f := c.si.job.inflight
	for {
		f.mu.Lock()
		f.open = false
		held, published := f.pendingSave, f.published
		f.mu.Unlock()
		if !c.injectBarrier() {
			return c.savepointStop
		}
		if !held {
			return true
		}
		select {
		case <-published:
		case <-c.runCtx.Done():
			return false
		}
	}
}

// sendSlice routes a slice of records down every out edge through the bulk
// path, bumping the out counter once.
func (c *sourceCtx) sendSlice(events []Event) bool {
	if len(events) == 0 {
		return true
	}
	for _, o := range c.si.outs {
		if !o.sendRecords(c.runCtx, events) {
			c.stopped = true
			return false
		}
	}
	c.si.outCounter.Add(int64(len(events)))
	if c.si.instrumented {
		m := c.si.maxTs.Load() // this goroutine is the only writer
		for i := range events {
			m = max(m, events[i].Timestamp)
		}
		c.si.maxTs.Store(m)
	}
	return true
}

// emitBarrier snapshots the source offset, acks, and broadcasts the barrier.
// A failed offset snapshot aborts the checkpoint, not the source: the barrier
// still flows downstream so alignment never wedges, and the next barrier
// starts a fresh checkpoint.
func (s *sourceInstance) emitBarrier(ctx context.Context, b barrierMark) bool {
	var offset []byte
	snapErr := error(nil)
	if rs, ok := s.src.(ReplayableSource); ok {
		offset, snapErr = rs.SnapshotOffset()
	}
	if snapErr == nil {
		var data []byte
		if data, snapErr = encodeInstanceSnapshot(instanceSnapshot{SourceOffset: offset}); snapErr == nil {
			s.job.saveAndAck(ctx, b, s.id, data, nil)
		}
	}
	if snapErr != nil {
		s.job.ack(ctx, b.ID, s.id, 0, nil, snapErr)
	}
	for _, o := range s.outs {
		if !o.broadcastCtl(ctx, message{kind: msgBarrier, barrier: b}) {
			return false
		}
	}
	return true
}

// run executes the source to completion, then emits the final watermark and
// EOS markers.
func (s *sourceInstance) run(ctx context.Context) error {
	lifeSpan := s.tracer.Begin("source.run", s.node.name, s.id)
	defer lifeSpan.End()
	if s.restore != nil {
		snap, err := decodeInstanceSnapshot(s.restore)
		if err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		if rs, ok := s.src.(ReplayableSource); ok && snap.SourceOffset != nil {
			if err := rs.RestoreOffset(snap.SourceOffset); err != nil {
				return fmt.Errorf("%s: restore offset: %w", s.id, err)
			}
		}
	}
	sctx := &sourceCtx{si: s, runCtx: ctx, lastWM: eventtime.MinWatermark}
	if err := s.src.Run(sctx); err != nil {
		return fmt.Errorf("%s: %w", s.id, err)
	}
	if ctx.Err() != nil || !sctx.finalBarrier() {
		return ctx.Err()
	}
	if sctx.savepointStop {
		s.job.savepointStopped.Store(true)
	}
	for _, o := range s.outs {
		// A natural end drains: event time advances to infinity so all open
		// windows fire. A stop-with-savepoint ends without draining.
		if !sctx.savepointStop {
			if !o.broadcastCtl(ctx, message{kind: msgWatermark, wm: eventtime.MaxWatermark}) {
				return ctx.Err()
			}
		}
		if !o.broadcastCtl(ctx, message{kind: msgEOS, drain: !sctx.savepointStop}) {
			return ctx.Err()
		}
	}
	return nil
}

// buildPhysical instantiates instances, inboxes and wiring.
func (j *Job) buildPhysical() error {
	// Create instances and inboxes first.
	opInst := make(map[int][]*instance) // node id -> instances
	srcInst := make(map[int][]*sourceInstance)
	inboxes := make(map[int][]chan message)
	inputCount := make(map[int][]int) // node id -> per-instance input channel count

	for _, n := range j.graph.nodes {
		if n.isSource {
			for i := 0; i < n.parallelism; i++ {
				si := &sourceInstance{
					job:        j,
					node:       n,
					idx:        i,
					id:         fmt.Sprintf("%s-%d", n.name, i),
					src:        n.sourceFac(i, n.parallelism),
					outCounter: j.outCounter(n.name),
					tracer:     j.cfg.Tracer,
				}
				si.maxTs.Store(eventtime.MinWatermark)
				if j.cfg.Instrument {
					si.markerEvery = j.cfg.LatencyMarkerInterval
					si.instrumented = true
				}
				if n.wmStrategy != nil {
					si.gen = n.wmStrategy()
				}
				srcInst[n.id] = append(srcInst[n.id], si)
				j.sources = append(j.sources, si)
			}
			continue
		}
		// ChannelCapacity bounds in-flight records. One message carries up to
		// MaxBatchSize records, so the message capacity scales down to keep
		// buffered records — memory footprint and queueing latency —
		// independent of the batch capacity.
		boxCap := j.cfg.ChannelCapacity
		if j.cfg.MaxBatchSize > 1 {
			if boxCap = boxCap / j.cfg.MaxBatchSize; boxCap < 1 {
				boxCap = 1
			}
		}
		boxes := make([]chan message, n.parallelism)
		for i := 0; i < n.parallelism; i++ {
			boxes[i] = make(chan message, boxCap)
			inst := &instance{
				job:        j,
				node:       n,
				idx:        i,
				id:         fmt.Sprintf("%s-%d", n.name, i),
				inbox:      boxes[i],
				op:         n.opFac(),
				timers:     newTimerService(),
				inCounter:  j.inCounter(n.name),
				outCounter: j.outCounter(n.name),
				tracer:     j.cfg.Tracer,
			}
			if j.cfg.Instrument {
				pfx := fmt.Sprintf("node.%s.%d.", n.name, i)
				inst.queueDepth = j.metrics.Gauge(pfx + "queue_depth")
				inst.wmGauge = j.metrics.Gauge(pfx + "watermark")
				inst.wmLag = j.metrics.Gauge(pfx + "watermark_lag_ms")
				inst.busyNs = j.metrics.Counter(pfx + "busy_ns")
				inst.timerNs = j.metrics.Counter(pfx + "timer_ns")
				inst.timersFired = j.metrics.Counter(pfx + "timers_fired")
				inst.latency = j.metrics.Histogram("node." + n.name + ".latency_ns")
				inst.alignNs = j.metrics.Histogram("node." + n.name + ".align_ns")
			}
			backend, err := j.cfg.BackendFactory(n.name, i)
			if err != nil {
				return fmt.Errorf("core: backend for %s: %w", inst.id, err)
			}
			inst.backend = backend
			if j.cfg.DeltaCheckpoints {
				if db, ok := backend.(state.DeltaBackend); ok {
					db.SetDeltaTracking(true)
				}
			}
			opInst[n.id] = append(opInst[n.id], inst)
			j.instances = append(j.instances, inst)
		}
		inboxes[n.id] = boxes
		inputCount[n.id] = make([]int, n.parallelism)
	}

	// Wire edges: allocate receiver-local channel IDs per (edge, upstream
	// instance) pair.
	groupMap := func(par int) []int {
		m := make([]int, state.DefaultKeyGroups)
		for i := 0; i < par; i++ {
			s, e := state.GroupRange(state.DefaultKeyGroups, par, i)
			for g := s; g < e; g++ {
				m[g] = i
			}
		}
		return m
	}

	for _, e := range j.graph.edges {
		downBoxes := inboxes[e.to.id]
		counts := inputCount[e.to.id]
		upPar := e.from.parallelism
		for ui := 0; ui < upPar; ui++ {
			var targets []chan message
			var chIDs []int
			if e.kind == PartitionForward {
				targets = []chan message{downBoxes[ui]}
				chIDs = []int{counts[ui]}
				counts[ui]++
			} else {
				for di := 0; di < e.to.parallelism; di++ {
					targets = append(targets, downBoxes[di])
					chIDs = append(chIDs, counts[di])
					counts[di]++
				}
			}
			o := newOutEdge(e, j.cfg.MaxBatchSize, targets, chIDs)
			if e.kind == PartitionHash {
				o.groupToTarget = groupMap(e.to.parallelism)
			}
			if j.cfg.Instrument {
				pfx := "edge." + e.from.name + "." + e.to.name + "."
				o.blocked = j.metrics.Histogram(pfx + "blocked_ns")
				o.batchSize = j.metrics.Histogram(pfx + "batch_size")
				o.flushSize = j.metrics.Counter(pfx + "flush_size")
				o.flushCtl = j.metrics.Counter(pfx + "flush_ctl")
				o.flushIdle = j.metrics.Counter(pfx + "flush_idle")
			}
			if e.from.isSource {
				srcInst[e.from.id][ui].outs = append(srcInst[e.from.id][ui].outs, o)
			} else {
				opInst[e.from.id][ui].outs = append(opInst[e.from.id][ui].outs, o)
			}
		}
	}

	for _, n := range j.graph.nodes {
		if n.isSource {
			continue
		}
		for i, inst := range opInst[n.id] {
			inst.numInputs = inputCount[n.id][i]
			inst.tracker = eventtime.NewWatermarkTracker(inst.numInputs)
			inst.barrierArrived = make([]bool, inst.numInputs)
			inst.channelFinished = make([]bool, inst.numInputs)
		}
	}
	return nil
}

// loadRestoreSnapshots assigns restore payloads from the configured
// checkpoint. An instance whose newest payload is a delta gets its whole
// chain, full image first; sources always save full offsets, so they load a
// single payload.
func (j *Job) loadRestoreSnapshots() error {
	if j.restoreCP < 0 {
		return nil
	}
	if j.cfg.SnapshotStore == nil {
		return fmt.Errorf("core: RestoreFrom set but no SnapshotStore configured")
	}
	for _, in := range j.instances {
		chain, err := loadSnapshotChain(j.cfg.SnapshotStore, j.restoreCP, in.id)
		if err != nil {
			return fmt.Errorf("core: restore %s: %w", in.id, err)
		}
		in.restore = chain
	}
	for _, s := range j.sources {
		data, err := j.cfg.SnapshotStore.Load(j.restoreCP, s.id)
		if err != nil {
			return fmt.Errorf("core: restore %s: %w", s.id, err)
		}
		s.restore = data
	}
	j.inflight.seq = j.restoreCP + 1
	return nil
}

// restorePayload is one link of an instance's restore chain: the payload and
// the checkpoint it was saved under (needed to resolve store-linked files).
type restorePayload struct {
	cp   int64
	data []byte
}

// loadSnapshotChain loads one instance's payload chain from the store:
// result[0] is the oldest (full) payload, result[len-1] the checkpoint being
// restored. Chain links must be strictly decreasing — anything else marks
// corrupt lineage.
func loadSnapshotChain(store SnapshotStore, cp int64, instanceID string) ([]restorePayload, error) {
	var chain []restorePayload
	for {
		data, err := store.Load(cp, instanceID)
		if err != nil {
			return nil, err
		}
		chain = append([]restorePayload{{cp: cp, data: data}}, chain...)
		snap, err := decodeInstanceSnapshot(data)
		if err != nil {
			return nil, err
		}
		if snap.DeltaBase == 0 {
			return chain, nil
		}
		if snap.DeltaBase >= cp {
			return nil, fmt.Errorf("core: checkpoint %d: delta base %d is not older than its child", cp, snap.DeltaBase)
		}
		cp = snap.DeltaBase
	}
}

// sortedUnique sorts and deduplicates a string slice (nil stays nil).
func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	sort.Strings(in)
	out := in[:1]
	for _, s := range in[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// Run executes the job until all sources finish and the pipeline drains, the
// context is cancelled, or an operator fails. It returns nil on clean
// completion.
func (j *Job) Run(ctx context.Context) error {
	if !j.started.CompareAndSwap(false, true) {
		return fmt.Errorf("core: job %q already ran; build a new Job", j.cfg.Name)
	}
	if err := j.buildPhysical(); err != nil {
		return err
	}
	j.physDone.Store(true)
	if err := j.loadRestoreSnapshots(); err != nil {
		return err
	}
	j.setOpen(true)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.cancel = cancel

	errCh := make(chan error, len(j.instances)+len(j.sources))
	var wg sync.WaitGroup
	settleDone := make(chan struct{})
	go j.settle(runCtx, settleDone)

	// runGuarded converts operator panics into job failures: a panicking
	// instance fails the job (and a supervisor may restart it from the last
	// checkpoint) instead of crashing the process.
	runGuarded := func(id string, f func(context.Context) error) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				errCh <- fmt.Errorf("core: %s: panic: %v", id, r)
				cancel()
			}
		}()
		if err := f(runCtx); err != nil && err != context.Canceled {
			errCh <- err
			cancel()
		}
	}
	for _, in := range j.instances {
		wg.Add(1)
		go runGuarded(in.id, in.run)
	}
	for _, s := range j.sources {
		wg.Add(1)
		go runGuarded(s.id, s.run)
	}

	wg.Wait()
	j.setOpen(false)
	close(j.settled)
	<-settleDone
	cancel()
	select {
	case err := <-errCh:
		return err
	default:
	}
	select {
	case err := <-j.failCh:
		return err
	default:
	}
	return ctx.Err()
}

// Stop cancels a running job. Run returns nil: a stop is a clean shutdown.
func (j *Job) Stop() {
	if j.cancel != nil {
		j.cancel()
	}
}

// Fail terminates a running job as if an operator had failed: Run returns
// err. Fault injectors use it to simulate a crash at a precise point; unlike
// Stop, a supervisor observes the run as failed and restarts it.
func (j *Job) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("core: job %q failed", j.cfg.Name)
	}
	select {
	case j.failCh <- err:
	default: // a failure is already recorded; keep the first
	}
	j.Stop()
}

// setOpen admits (or stops admitting) checkpoint requests.
func (j *Job) setOpen(open bool) {
	j.inflight.mu.Lock()
	j.inflight.open = open
	j.inflight.mu.Unlock()
}

// requestCheckpoint implements both triggers: under inflight.mu, in the
// caller's goroutine, it starts the checkpoint and publishes its barrier.
func (j *Job) requestCheckpoint(savepoint bool) bool {
	f := j.inflight
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case j.cfg.SnapshotStore == nil || !f.open || f.save:
		// After a savepoint's barrier the sources are stopping.
		return false
	case f.active:
		if savepoint {
			f.pendingSave = true
		}
	case !savepoint && f.settling > 0:
		// A checkpoint may be a delta of the last completed one, so it
		// waits until the store has settled the one before; a savepoint is
		// always full.
		return false
	default:
		j.initiate(savepoint)
	}
	return true
}

// TriggerCheckpoint starts a checkpoint; if one awaits acks, the request
// is coalesced into it. Every source emits the barrier before its next
// record or before its EOS, so a call from a source's goroutine lands it
// right before that instance's next record. It returns false, and no
// checkpoint follows, when the job has no SnapshotStore, Run has not
// restored it yet, a source has reached end of stream, Run has returned,
// a savepoint has started, or the previous checkpoint is still being
// completed in the store; a caller that needs the checkpoint retries.
func (j *Job) TriggerCheckpoint() bool { return j.requestCheckpoint(false) }

// TriggerSavepoint starts a final checkpoint: each source stops as it emits
// the barrier, open windows stay in state, and Run returns with
// SavepointStopped true; LastCheckpoint reports the savepoint once it
// completes. Requested while another checkpoint awaits acks, it is held and
// starts at the last ack of the checkpoint then in flight, still before
// every source's EOS. It returns false, and no savepoint follows, when the
// job has no SnapshotStore, Run has not restored it yet, a source has
// reached end of stream, Run has returned, or a savepoint has already
// started.
func (j *Job) TriggerSavepoint() bool { return j.requestCheckpoint(true) }

// initiate starts checkpoint seq+1 and publishes its barrier. Called with
// inflight.mu held and no checkpoint awaiting acks.
func (j *Job) initiate(savepoint bool) {
	f := j.inflight
	f.seq++
	f.active, f.id, f.save = true, f.seq, savepoint
	f.failed, f.bytes, f.files, f.deltaBase = "", 0, nil, 0
	if savepoint {
		f.pendingSave = false
	}
	// Delta selection: base on the last *completed* checkpoint (guaranteed
	// restorable; also naturally forces the first post-restore checkpoint
	// full, since lastCheckpoint starts at -1 in a new incarnation), unless
	// the chain has reached its bound. Savepoints are always full — they are
	// the rescale/portability format.
	if j.cfg.DeltaCheckpoints && !savepoint {
		if base := j.lastCheckpoint.Load(); base > 0 && f.deltaChainLen+1 < j.cfg.FullSnapshotEvery {
			f.deltaBase = base
		}
	}
	if j.cfg.Instrument {
		f.started = nanotime()
	}
	if j.cfg.Tracer != nil {
		f.span = j.cfg.Tracer.Begin("checkpoint", "", j.cfg.Name).SetInt("checkpoint", f.id)
		if savepoint {
			f.span.SetAttr("savepoint", "true")
		}
	}
	f.pending = make(map[string]bool, len(j.instances)+len(j.sources))
	for _, in := range j.instances {
		f.pending[in.id] = true
	}
	for _, s := range j.sources {
		f.pending[s.id] = true
	}
	j.barrier.Store(&barrierMark{ID: f.id, Savepoint: savepoint, DeltaBase: f.deltaBase})
	close(f.published)
	f.published = make(chan struct{})
}

// ack records one participant's part of checkpoint cp, in the
// participant's goroutine: the bytes it saved and the backend files it
// linked (SSTable reuse), or the error that kept its snapshot from being
// taken or persisted. A failure aborts the checkpoint, not the job. The last
// ack frees the slot and hands the checkpoint to settle; no new checkpoint
// starts before then, so no source can skip a barrier. A held savepoint
// starts right there. Acks after the job was cancelled are ignored: a
// crashed job completes nothing.
func (j *Job) ack(ctx context.Context, cp int64, instanceID string, bytes int64, files []string, err error) {
	if err != nil {
		j.saveFailures.Add(1)
		if j.cfg.Instrument {
			j.metrics.Counter("checkpoint.save_failures").Inc()
		}
		j.logger.Printf("checkpoint %d: %s: snapshot failed: %v", cp, instanceID, err)
	}
	if ctx.Err() != nil {
		return
	}
	f := j.inflight
	f.mu.Lock()
	if !f.active || cp != f.id || !f.pending[instanceID] {
		f.mu.Unlock()
		return
	}
	delete(f.pending, instanceID)
	if err != nil {
		if f.failed == "" {
			f.failed = instanceID
		}
	} else {
		f.bytes += bytes
		f.files = append(f.files, files...)
	}
	if len(f.pending) > 0 {
		f.mu.Unlock()
		return
	}
	f.active = false
	f.settling++
	st := settlement{
		meta: CheckpointMeta{
			ID:        f.id,
			JobName:   j.cfg.Name,
			Savepoint: f.save,
			Bytes:     f.bytes,
			Parent:    f.deltaBase,
			Files:     sortedUnique(f.files),
		},
		failedAt: f.failed,
		started:  f.started,
		span:     f.span,
	}
	f.span = nil
	held := f.pendingSave
	f.mu.Unlock()
	// Sent before a held savepoint starts, so settle sees checkpoints in ID
	// order; settled has room, so the send does not block.
	j.settled <- st
	if held {
		// A periodic request may have started a checkpoint since the unlock;
		// then the savepoint stays held until that one's last ack.
		f.mu.Lock()
		if f.pendingSave && !f.active {
			j.initiate(true)
		}
		f.mu.Unlock()
	}
}

// settlement is a checkpoint every participant has acked, on its way to
// the store.
type settlement struct {
	meta CheckpointMeta
	// failedAt names the first participant whose snapshot failed.
	failedAt string
	started  int64
	span     *obsv.Span
}

// settle hands each fully acked checkpoint to the store, in order: it
// completes it or, if a snapshot failed, aborts it and discards its
// partial snapshots. It runs beside the job, so the store's I/O stalls no
// record.
func (j *Job) settle(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	for st := range j.settled {
		meta := st.meta
		completed := false
		switch {
		case ctx.Err() != nil:
			// A cancelled job completes nothing.
		case st.failedAt != "":
			j.abortedCP.Add(1)
			if j.cfg.Instrument {
				j.metrics.Counter("checkpoint.aborted").Inc()
			}
			st.span.SetAttr("aborted", "true").End()
			if d, ok := j.cfg.SnapshotStore.(DiscardableStore); ok {
				if err := d.Discard(meta.ID); err != nil {
					j.logger.Printf("checkpoint %d: discard: %v", meta.ID, err)
				}
			}
			j.logger.Printf("checkpoint %d aborted (snapshot failed at %s)", meta.ID, st.failedAt)
		default:
			for _, in := range j.instances {
				meta.InstanceIDs = append(meta.InstanceIDs, in.id)
			}
			for _, s := range j.sources {
				meta.InstanceIDs = append(meta.InstanceIDs, s.id)
			}
			if j.cfg.Instrument {
				j.metrics.Histogram("checkpoint.duration_ns").Observe(nanotime() - st.started)
				j.metrics.Gauge("checkpoint.last_id").Set(meta.ID)
				j.metrics.Gauge("checkpoint.last_bytes").Set(meta.Bytes)
				j.metrics.Histogram("checkpoint.bytes").Observe(meta.Bytes)
				j.metrics.Counter("checkpoint.completed").Inc()
				if meta.Parent != 0 {
					j.metrics.Counter("checkpoint.deltas").Inc()
				}
			}
			st.span.SetInt("bytes", meta.Bytes)
			st.span.End()
			if err := j.cfg.SnapshotStore.Complete(meta); err != nil {
				j.logger.Printf("checkpoint %d: complete: %v", meta.ID, err)
			} else {
				completed = true
			}
		}
		f := j.inflight
		f.mu.Lock()
		f.settling--
		if completed {
			// Any completed full snapshot (savepoints included) restarts the
			// chain: later deltas may base on it directly.
			if meta.Parent != 0 {
				f.deltaChainLen++
			} else {
				f.deltaChainLen = 0
			}
			j.lastCheckpoint.Store(meta.ID)
		}
		f.mu.Unlock()
		if completed {
			j.logger.Printf("checkpoint %d complete (%d bytes)", meta.ID, meta.Bytes)
			j.notifyCheckpoint(meta.ID)
		}
	}
}

// A failed snapshot Save gets snapshotRetries more attempts,
// snapshotRetryBackoff apart, before its checkpoint aborts (the job keeps
// running and the next barrier subsumes the aborted checkpoint).
const (
	snapshotRetries      = 2
	snapshotRetryBackoff = 2 * time.Millisecond
)

// saveAndAck persists one instance snapshot, retrying transient store I/O
// errors with a fixed backoff, and acks it with the backend files the
// instance linked into the checkpoint. Linked files add no payload bytes — a
// hard link writes no data, which is exactly the reuse the checkpoint-bytes
// metric measures. A save that still fails after the retry budget acks the
// failure: the checkpoint aborts and the job keeps running.
func (j *Job) saveAndAck(ctx context.Context, b barrierMark, instanceID string, data []byte, files []string) {
	if j.cfg.SnapshotStore == nil {
		return
	}
	var err error
	for attempt := 0; attempt <= snapshotRetries; attempt++ {
		if attempt > 0 {
			if j.cfg.Instrument {
				j.metrics.Counter("checkpoint.save_retries").Inc()
			}
			select {
			case <-time.After(snapshotRetryBackoff):
			case <-ctx.Done():
				return
			}
		}
		if err = j.cfg.SnapshotStore.Save(b.ID, instanceID, data); err == nil {
			break
		}
	}
	j.ack(ctx, b.ID, instanceID, int64(len(data)), files, err)
}
