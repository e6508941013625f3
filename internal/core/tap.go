package core

import "repro/internal/eventtime"

// Tap observes one stream's traffic from outside the job — the engine-side
// attachment point for serving layers (continuous-query subscriptions,
// result caches) that multiplex a running job's operator output to external
// consumers. Callbacks run on the tap operator's goroutine, serialised, so
// implementations need no internal ordering; they MUST NOT block, or they
// would backpressure the job itself — buffer and shed on the consumer side
// instead (see internal/serve).
type Tap interface {
	// OnRecord observes one record. The event's Value is shared with the
	// pipeline; taps that retain it across calls must copy.
	OnRecord(e Event)
	// OnWatermark observes event-time progress at the tap. The terminal
	// MaxWatermark is not forwarded; OnEOS signals the natural end instead.
	OnWatermark(wm int64)
	// OnEOS is called once when the stream drains naturally. A
	// stop-with-savepoint (rescale) terminates the tap silently WITHOUT
	// OnEOS — the rebuilt incarnation re-attaches and resumes publishing, so
	// downstream subscribers ride through reconfigurations.
	OnEOS()
}

// TapInto inserts a pass-through observation point: every record and
// watermark continues downstream unchanged and is also forwarded to t. The
// tap runs at parallelism 1 so t sees one serialised stream; it can terminate
// a branch (no downstream consumers) or sit mid-pipeline.
func (s *Stream) TapInto(name string, t Tap) *Stream {
	return s.ProcessWith(name, func() Operator { return &tapOperator{tap: t} }, 1)
}

type tapOperator struct {
	BaseOperator
	tap Tap
}

func (o *tapOperator) ProcessElement(e Event, ctx Context) error {
	o.tap.OnRecord(e)
	ctx.Emit(e)
	return nil
}

// ProcessBatch implements BatchOperator: per-record observation order is
// preserved, the pass-through emission is amortised over the batch.
func (o *tapOperator) ProcessBatch(batch []Event, ctx BatchContext) error {
	for i := range batch {
		o.tap.OnRecord(batch[i])
	}
	ctx.EmitBatch(batch)
	return nil
}

func (o *tapOperator) OnWatermark(wm int64, _ Context) error {
	if wm != eventtime.MaxWatermark {
		o.tap.OnWatermark(wm)
	}
	return nil
}

// Close fires OnEOS: the runtime only calls Close on a draining end of
// stream, never on a stop-with-savepoint, which is exactly the distinction
// Tap documents.
func (o *tapOperator) Close(Context) error {
	o.tap.OnEOS()
	return nil
}
