package core

import (
	"sort"
	"sync"
	"time"
)

// SourceContext is handed to a running Source.
type SourceContext interface {
	// Collect emits an event downstream. It blocks under backpressure and
	// returns false when the source should stop (job cancelled). The record
	// has shipped when Collect returns — the source may not collect again for
	// a while — so it travels as a batch of one; sources that produce records
	// in bursts should use CollectBatch.
	Collect(e Event) bool
	// CollectBatch emits events in order, equivalent to calling Collect on
	// each, with the stop/barrier checks and routing dispatch amortized over
	// the slice, and the records packed into batches of up to
	// Config.MaxBatchSize that ship before the call returns. Watermark
	// semantics are preserved exactly: the generator
	// observes every record and punctuated watermarks land between the same
	// two records as on the per-record path. Unlike Collect, a checkpoint
	// barrier can only be injected before the first record of the slice, so
	// replayable sources must snapshot their offset at CollectBatch
	// granularity and size their batches accordingly (a few hundred records —
	// one ingest poll — is the sweet spot). The slice is not retained.
	CollectBatch(events []Event) bool
	// EmitWatermark emits an explicit watermark (punctuated strategies).
	// Periodic strategies are driven by the runtime instead.
	EmitWatermark(wm int64)
	// InstanceIndex returns this parallel source instance's index.
	InstanceIndex() int
	// Parallelism returns the source's parallelism.
	Parallelism() int
	// Stopped reports whether the job asked the source to stop. Collect
	// already checks this; long-idle sources should poll it.
	Stopped() bool
}

// Source produces the input stream of a job. Run must return once Collect
// returns false or Stopped reports true. Each parallel instance receives its
// own Source value from the SourceFactory.
type Source interface {
	Run(ctx SourceContext) error
}

// ReplayableSource is a Source whose read position can be checkpointed and
// restored — the property exactly-once recovery requires from inputs.
type ReplayableSource interface {
	Source
	// SnapshotOffset captures the current read position.
	SnapshotOffset() ([]byte, error)
	// RestoreOffset rewinds the source to a captured position. It is called
	// before Run.
	RestoreOffset(data []byte) error
}

// SourceFactory builds one Source per parallel instance.
type SourceFactory func(instance, parallelism int) Source

// SourceFunc adapts a plain function into a SourceFactory where every
// instance runs the same body.
func SourceFunc(fn func(ctx SourceContext) error) SourceFactory {
	return func(_, _ int) Source { return runnableSource{fn: fn} }
}

type runnableSource struct {
	fn func(ctx SourceContext) error
}

func (s runnableSource) Run(ctx SourceContext) error { return s.fn(ctx) }

// SliceSource replays a fixed set of events, partitioned round-robin across
// instances, checkpointing its offset. It is the workhorse of tests and
// recovery experiments.
type SliceSource struct {
	events   []Event
	instance int
	par      int
	delay    func(i int) time.Duration

	mu     sync.Mutex
	offset int // index into the instance's own sub-slice
}

// NewSliceSourceFactory returns a factory replaying events. The slice is
// shared; do not mutate it after the job starts.
func NewSliceSourceFactory(events []Event) SourceFactory {
	return func(instance, parallelism int) Source {
		return &SliceSource{events: events, instance: instance, par: parallelism}
	}
}

// NewPacedSourceFactory is NewSliceSourceFactory with a pause of delay(i)
// before events[i] is emitted, so demos and tests can shape the offered rate
// (ramps, bursts, lulls) without changing the data. i indexes the whole
// slice, not an instance's share, so one schedule shapes the stream at any
// source parallelism. Pacing only affects timing: a restored instance
// resumes at its checkpointed offset emitting identical data.
func NewPacedSourceFactory(events []Event, delay func(i int) time.Duration) SourceFactory {
	return func(instance, parallelism int) Source {
		return &SliceSource{events: events, instance: instance, par: parallelism, delay: delay}
	}
}

// globalIndex maps an offset into the instance's share back to its index
// in the whole slice.
func (s *SliceSource) globalIndex(i int) int { return s.instance + i*max(s.par, 1) }

// own returns the events assigned to this instance (round-robin).
func (s *SliceSource) own() []Event {
	if s.par <= 1 {
		return s.events
	}
	var out []Event
	for i := s.instance; i < len(s.events); i += s.par {
		out = append(out, s.events[i])
	}
	return out
}

// Run emits the instance's events from the restored offset.
func (s *SliceSource) Run(ctx SourceContext) error {
	events := s.own()
	for {
		s.mu.Lock()
		i := s.offset
		s.mu.Unlock()
		if i >= len(events) {
			return nil
		}
		if s.delay != nil {
			time.Sleep(s.delay(s.globalIndex(i)))
		}
		if !ctx.Collect(events[i]) {
			return nil
		}
		s.mu.Lock()
		s.offset = i + 1
		s.mu.Unlock()
	}
}

// SnapshotOffset captures the replay position.
func (s *SliceSource) SnapshotOffset() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte{byte(s.offset >> 24), byte(s.offset >> 16), byte(s.offset >> 8), byte(s.offset)}, nil
}

// RestoreOffset rewinds to a captured position.
func (s *SliceSource) RestoreOffset(data []byte) error {
	if len(data) != 4 {
		return nil
	}
	s.mu.Lock()
	s.offset = int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	s.mu.Unlock()
	return nil
}

var _ ReplayableSource = (*SliceSource)(nil)

// CollectSink accumulates sunk events for assertions. Safe for concurrent
// use by parallel sink instances.
type CollectSink struct {
	mu      sync.Mutex
	events  []Event
	waiters []lenWaiter
}

// lenWaiter is a WhenLen channel and the length that closes it.
type lenWaiter struct {
	n  int
	ch chan struct{}
}

// NewCollectSink returns an empty sink.
func NewCollectSink() *CollectSink { return &CollectSink{} }

// Factory returns the sink's OperatorFactory.
func (c *CollectSink) Factory() OperatorFactory {
	return SinkFunc(func(e Event) error {
		c.mu.Lock()
		c.events = append(c.events, e)
		if len(c.waiters) > 0 {
			c.release()
		}
		c.mu.Unlock()
		return nil
	})
}

// WhenLen returns a channel closed once the sink holds at least n events:
// supervisors time recovery by a restarted job's first output without
// polling. The channel never closes if the sink stays shorter.
func (c *CollectSink) WhenLen(n int) <-chan struct{} {
	ch := make(chan struct{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) >= n {
		close(ch)
		return ch
	}
	c.waiters = append(c.waiters, lenWaiter{n: n, ch: ch})
	return ch
}

// release closes the channels of waiters the sink's length has reached.
// Called with c.mu held.
func (c *CollectSink) release() {
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if len(c.events) >= w.n {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
}

// Events returns a copy of the collected events.
func (c *CollectSink) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of collected events.
func (c *CollectSink) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Reset clears the sink.
func (c *CollectSink) Reset() {
	c.mu.Lock()
	c.events = nil
	c.mu.Unlock()
}

// SortedByTimestamp returns the collected events ordered by (timestamp, key).
func (c *CollectSink) SortedByTimestamp() []Event {
	evs := c.Events()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Timestamp != evs[j].Timestamp {
			return evs[i].Timestamp < evs[j].Timestamp
		}
		return evs[i].Key < evs[j].Key
	})
	return evs
}
