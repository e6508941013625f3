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

	// Checkpointing.
	cpRequest chan barrierMark // external/auto triggers, coalesced
	cpSeq     atomic.Int64
	acks      chan ackMsg
	inflight  *checkpointInflight
	restoreCP int64 // checkpoint to restore from; <0 means fresh

	started atomic.Bool
	// physDone flips once buildPhysical has wired instances, publishing the
	// instance slices to concurrent readers (the introspection server).
	physDone  atomic.Bool
	cancel    context.CancelFunc
	drainDone chan struct{}
	// failCh carries an externally injected failure (Job.Fail); Run returns
	// it after shutdown, so fault injectors can crash a job mid-flight.
	failCh chan error

	// LastCheckpoint is the ID of the most recently completed checkpoint.
	lastCheckpoint atomic.Int64
	// savepointStopped flips when a stop-with-savepoint barrier halts a
	// source mid-stream, distinguishing that exit from a natural
	// end-of-stream once Run returns.
	savepointStopped atomic.Bool
	// abortedCP counts checkpoints abandoned because an instance's snapshot
	// failed; saveFailures counts the individual failed snapshot attempts.
	// The job keeps running through both — the next barrier subsumes the
	// aborted checkpoint.
	abortedCP    atomic.Int64
	saveFailures atomic.Int64
	// deltaChainLen counts completed delta checkpoints since the last
	// completed full one; the coordinator forces a full snapshot once the
	// chain reaches FullSnapshotEvery-1. Only the coordinator goroutine
	// touches it.
	deltaChainLen int
}

type ackMsg struct {
	cp         int64
	instanceID string
	bytes      int64
	savepoint  bool
	// failed marks a snapshot that could not be taken or persisted; the
	// coordinator aborts the whole checkpoint on the first failed ack.
	failed bool
	// files lists backend files the instance linked into the checkpoint
	// (SSTable reuse); they become part of the checkpoint metadata.
	files []string
}

type checkpointInflight struct {
	mu      sync.Mutex
	active  bool
	id      int64
	pending map[string]bool
	bytes   int64
	save    bool
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
	// checkpoint was in flight. The coordinator re-initiates it when the
	// in-flight checkpoint completes or aborts, so an accepted savepoint is
	// never silently coalesced away — callers that got `true` from
	// TriggerSavepoint can rely on the job eventually stopping (unless the
	// stream ends first).
	pendingSave bool
}

func newJob(cfg Config, g *Graph) *Job {
	j := &Job{
		cfg:       cfg,
		graph:     g,
		logger:    log.New(io.Discard, "", 0),
		metrics:   metrics.NewRegistry(),
		cpRequest: make(chan barrierMark, 8),
		acks:      make(chan ackMsg, 256),
		inflight:  &checkpointInflight{waiters: make(map[int64][]chan struct{})},
		restoreCP: -1,
		drainDone: make(chan struct{}),
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
func (j *Job) NumKeyGroups() int { return j.cfg.NumKeyGroups }

// LastCheckpoint returns the most recently completed checkpoint ID, or -1.
func (j *Job) LastCheckpoint() int64 { return j.lastCheckpoint.Load() }

// SavepointStopped reports whether a stop-with-savepoint barrier halted the
// job's sources mid-stream. Meaningful once Run has returned: true means the
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
	barrierReq chan barrierMark
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
	count         int
	lastWM        int64
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
	if c.Stopped() {
		return false
	}
	// Barrier injection point: a pending barrier is emitted *before* the
	// next element so the snapshot offset excludes it.
	select {
	case b := <-c.si.barrierReq:
		if !c.si.emitBarrier(c.runCtx, b) {
			c.stopped = true
			return false
		}
		if b.Savepoint {
			c.stopped = true
			c.savepointStop = true
			return false
		}
	default:
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
			s.job.saveAndAck(ctx, b, s.id, data)
		}
	}
	if snapErr != nil {
		s.job.failCheckpoint(b, s.id, snapErr)
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
	if ctx.Err() != nil {
		return ctx.Err()
	}
	// Drain pending barriers (e.g. a savepoint that stopped the source, or a
	// checkpoint initiated as the stream ended) before closing the stream.
drain:
	for {
		select {
		case b := <-s.barrierReq:
			if !s.emitBarrier(ctx, b) {
				return ctx.Err()
			}
		default:
			break drain
		}
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
					barrierReq: make(chan barrierMark, 4),
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
		m := make([]int, j.cfg.NumKeyGroups)
		for i := 0; i < par; i++ {
			s, e := state.GroupRange(j.cfg.NumKeyGroups, par, i)
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
			o.numKeyGroups = j.cfg.NumKeyGroups
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
	j.cpSeq.Store(j.restoreCP + 1)
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

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	j.cancel = cancel

	errCh := make(chan error, len(j.instances)+len(j.sources))
	var wg sync.WaitGroup

	// Checkpoint coordinator.
	coordDone := make(chan struct{})
	go j.coordinate(runCtx, coordDone)

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
	close(j.drainDone)
	<-coordDone
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

// requestCheckpoint asks the coordinator to start a checkpoint and reports
// whether the request was accepted. The send is non-blocking by design —
// sources call this from their hot path — so a full request queue rejects
// rather than stalls; callers that must not lose the request (a rescale's
// savepoint trigger) retry on false instead of assuming the checkpoint will
// happen.
func (j *Job) requestCheckpoint(savepoint bool) bool {
	select {
	case j.cpRequest <- barrierMark{Savepoint: savepoint}:
		return true
	default:
		return false
	}
}

// TriggerCheckpoint manually starts a checkpoint (no-op without a store). It
// returns whether the request was accepted; false means the coordinator's
// request queue was full and the caller should retry.
func (j *Job) TriggerCheckpoint() bool { return j.requestCheckpoint(false) }

// TriggerSavepoint starts a final checkpoint and stops the sources once the
// barrier is emitted; the pipeline then drains and Run returns. The
// savepoint's checkpoint ID is reported via LastCheckpoint after completion.
// It returns whether the request was accepted; false means the request queue
// was full and the savepoint will NOT happen unless retried. An accepted
// savepoint is never dropped: if another checkpoint is in flight when the
// request is dequeued, the savepoint is held and initiated as soon as the
// in-flight checkpoint completes or aborts.
func (j *Job) TriggerSavepoint() bool { return j.requestCheckpoint(true) }

// coordinate runs the checkpoint coordinator: it serialises checkpoint
// initiation and completes checkpoints as acks arrive. Once the job's
// instances have all exited, remaining acks are drained so a checkpoint whose
// snapshots all landed still completes.
func (j *Job) coordinate(ctx context.Context, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-j.drainDone:
			for {
				select {
				case a := <-j.acks:
					j.processAck(a)
				default:
					return
				}
			}
		case req := <-j.cpRequest:
			j.initiateCheckpoint(ctx, req)
		case a := <-j.acks:
			if j.processAck(a) {
				// A savepoint arrived while that checkpoint was in flight;
				// start it now that the slot is free.
				j.initiateCheckpoint(ctx, barrierMark{Savepoint: true})
			}
		}
	}
}

func (j *Job) initiateCheckpoint(ctx context.Context, req barrierMark) {
	if j.cfg.SnapshotStore == nil {
		return
	}
	j.inflight.mu.Lock()
	if j.inflight.active {
		// Coalesce concurrent checkpoint requests — but hold a savepoint for
		// re-initiation, because dropping it would leave a TriggerSavepoint
		// caller waiting for a stop that never comes.
		if req.Savepoint {
			j.inflight.pendingSave = true
		}
		j.inflight.mu.Unlock()
		return
	}
	if req.Savepoint {
		j.inflight.pendingSave = false
	}
	id := j.cpSeq.Add(1)
	j.inflight.active = true
	j.inflight.id = id
	j.inflight.save = req.Savepoint
	j.inflight.bytes = 0
	j.inflight.files = nil
	j.inflight.deltaBase = 0
	// Delta selection: base on the last *completed* checkpoint (guaranteed
	// restorable; also naturally forces the first post-restore checkpoint
	// full, since lastCheckpoint starts at -1 in a new incarnation), unless
	// the chain has reached its bound. Savepoints are always full — they are
	// the rescale/portability format.
	if j.cfg.DeltaCheckpoints && !req.Savepoint {
		if base := j.lastCheckpoint.Load(); base > 0 && j.deltaChainLen+1 < j.cfg.FullSnapshotEvery {
			j.inflight.deltaBase = base
		}
	}
	if j.cfg.Instrument {
		j.inflight.started = nanotime()
	}
	if j.cfg.Tracer != nil {
		j.inflight.span = j.cfg.Tracer.Begin("checkpoint", "", j.cfg.Name).SetInt("checkpoint", id)
		if req.Savepoint {
			j.inflight.span.SetAttr("savepoint", "true")
		}
	}
	j.inflight.pending = make(map[string]bool, len(j.instances)+len(j.sources))
	for _, in := range j.instances {
		j.inflight.pending[in.id] = true
	}
	for _, s := range j.sources {
		j.inflight.pending[s.id] = true
	}
	deltaBase := j.inflight.deltaBase
	j.inflight.mu.Unlock()
	b := barrierMark{ID: id, Savepoint: req.Savepoint, DeltaBase: deltaBase}
	for _, s := range j.sources {
		select {
		case s.barrierReq <- b:
		case <-ctx.Done():
			return
		}
	}
}

// processAck folds one instance ack into the in-flight checkpoint. The
// return value reports whether a held savepoint should be initiated now that
// the in-flight slot is free (completion or abort of a non-savepoint
// checkpoint with pendingSave set).
func (j *Job) processAck(a ackMsg) bool {
	j.inflight.mu.Lock()
	if !j.inflight.active || a.cp != j.inflight.id {
		j.inflight.mu.Unlock()
		return false
	}
	if a.failed {
		// Abort-and-subsume: abandon this checkpoint, discard its partial
		// snapshots, and keep the job running — the next barrier starts a
		// fresh checkpoint that subsumes it. Late acks for the aborted ID
		// fall through the active/id guard above.
		j.inflight.active = false
		// An aborted savepoint already stopped the sources, so a held
		// follow-up savepoint has nothing left to snapshot — drop it.
		resume := j.inflight.pendingSave && !j.inflight.save
		j.inflight.pendingSave = false
		span := j.inflight.span
		j.inflight.span = nil
		j.inflight.mu.Unlock()
		j.abortedCP.Add(1)
		if j.cfg.Instrument {
			j.metrics.Counter("checkpoint.aborted").Inc()
		}
		span.SetAttr("aborted", "true").End()
		if d, ok := j.cfg.SnapshotStore.(DiscardableStore); ok {
			if err := d.Discard(a.cp); err != nil {
				j.logger.Printf("checkpoint %d: discard: %v", a.cp, err)
			}
		}
		j.logger.Printf("checkpoint %d aborted (snapshot failed at %s)", a.cp, a.instanceID)
		return resume
	}
	delete(j.inflight.pending, a.instanceID)
	j.inflight.bytes += a.bytes
	j.inflight.files = append(j.inflight.files, a.files...)
	if len(j.inflight.pending) > 0 {
		j.inflight.mu.Unlock()
		return false
	}
	meta := CheckpointMeta{
		ID:        j.inflight.id,
		JobName:   j.cfg.Name,
		Savepoint: j.inflight.save,
		Bytes:     j.inflight.bytes,
		Parent:    j.inflight.deltaBase,
		Files:     sortedUnique(j.inflight.files),
	}
	for _, in := range j.instances {
		meta.InstanceIDs = append(meta.InstanceIDs, in.id)
	}
	for _, s := range j.sources {
		meta.InstanceIDs = append(meta.InstanceIDs, s.id)
	}
	j.inflight.active = false
	resume := j.inflight.pendingSave && !j.inflight.save
	j.inflight.pendingSave = false
	started := j.inflight.started
	span := j.inflight.span
	j.inflight.span = nil
	j.inflight.mu.Unlock()
	if j.cfg.Instrument {
		j.metrics.Histogram("checkpoint.duration_ns").Observe(nanotime() - started)
		j.metrics.Gauge("checkpoint.last_id").Set(meta.ID)
		j.metrics.Gauge("checkpoint.last_bytes").Set(meta.Bytes)
		j.metrics.Histogram("checkpoint.bytes").Observe(meta.Bytes)
		j.metrics.Counter("checkpoint.completed").Inc()
		if meta.Parent != 0 {
			j.metrics.Counter("checkpoint.deltas").Inc()
		}
	}
	span.SetInt("bytes", meta.Bytes)
	span.End()
	if err := j.cfg.SnapshotStore.Complete(meta); err != nil {
		j.logger.Printf("checkpoint %d: complete: %v", meta.ID, err)
		return resume
	}
	if meta.Parent != 0 {
		j.deltaChainLen++
	} else {
		// Any completed full snapshot (savepoints included) restarts the
		// chain: later deltas may base on it directly.
		j.deltaChainLen = 0
	}
	j.lastCheckpoint.Store(meta.ID)
	j.logger.Printf("checkpoint %d complete (%d bytes)", meta.ID, meta.Bytes)
	j.notifyCheckpoint(meta.ID)
	return resume
}

// saveAndAck persists one instance snapshot (retrying transient store I/O
// errors with a fixed backoff) and acknowledges it to the coordinator. A save
// that still fails after the retry budget does not fail the instance: the
// checkpoint is aborted via a failed ack and the job keeps running.
func (j *Job) saveAndAck(ctx context.Context, b barrierMark, instanceID string, data []byte) {
	j.saveAndAckFiles(ctx, b, instanceID, data, nil)
}

// saveAndAckFiles is saveAndAck for instances that also linked backend files
// into the checkpoint: the names ride along in the ack so the coordinator can
// record them in the checkpoint metadata. Linked files contribute no payload
// bytes — a hard link writes no data, which is exactly the reuse the
// checkpoint-bytes metric measures.
func (j *Job) saveAndAckFiles(ctx context.Context, b barrierMark, instanceID string, data []byte, files []string) {
	if j.cfg.SnapshotStore == nil {
		return
	}
	var err error
	for attempt := 0; attempt <= j.cfg.SnapshotRetries; attempt++ {
		if attempt > 0 {
			if j.cfg.Instrument {
				j.metrics.Counter("checkpoint.save_retries").Inc()
			}
			select {
			case <-time.After(j.cfg.SnapshotRetryBackoff):
			case <-ctx.Done():
				return
			}
		}
		if err = j.cfg.SnapshotStore.Save(b.ID, instanceID, data); err == nil {
			break
		}
	}
	if err != nil {
		j.failCheckpoint(b, instanceID, err)
		return
	}
	j.sendAck(ackMsg{
		cp: b.ID, instanceID: instanceID, bytes: int64(len(data)),
		savepoint: b.Savepoint, files: files,
	})
}

// failCheckpoint reports that an instance could not contribute its snapshot
// to checkpoint b; the coordinator aborts the checkpoint and the job keeps
// running (the next barrier subsumes it).
func (j *Job) failCheckpoint(b barrierMark, instanceID string, err error) {
	j.saveFailures.Add(1)
	if j.cfg.Instrument {
		j.metrics.Counter("checkpoint.save_failures").Inc()
	}
	j.logger.Printf("checkpoint %d: %s: snapshot failed: %v", b.ID, instanceID, err)
	j.sendAck(ackMsg{cp: b.ID, instanceID: instanceID, failed: true, savepoint: b.Savepoint})
}

func (j *Job) sendAck(a ackMsg) {
	select {
	case j.acks <- a:
	default:
		// The coordinator drains acks continuously; a full channel here means
		// the job is shutting down. Dropping the ack only delays checkpoint
		// completion, never correctness.
	}
}
