package core

import (
	"log"

	"repro/internal/state"
)

// Context is handed to operator callbacks. It is only valid for the duration
// of the callback.
type Context interface {
	// Emit sends an event downstream on all outgoing edges.
	Emit(e Event)
	// Key returns the key the current element/timer is scoped to (empty for
	// non-keyed operators).
	Key() string
	// State returns the instance's keyed state backend, already scoped to
	// Key(). Accessing state on a non-keyed operator scopes to the empty key.
	State() state.Backend
	// RegisterEventTimeTimer schedules OnTimer for the current key once the
	// watermark passes ts. Duplicate registrations coalesce.
	RegisterEventTimeTimer(ts int64)
	// DeleteEventTimeTimer unregisters a timer for the current key.
	DeleteEventTimeTimer(ts int64)
	// CurrentWatermark returns the instance's current combined watermark.
	CurrentWatermark() int64
	// InstanceIndex returns this parallel instance's index.
	InstanceIndex() int
	// Parallelism returns the operator's parallelism.
	Parallelism() int
	// Logger returns the job logger.
	Logger() *log.Logger
}

// Operator is the engine's operator API: user logic invoked per element,
// per fired timer, and on watermark advancement. Implementations need not be
// safe for concurrent use — the engine serialises all callbacks per instance.
type Operator interface {
	// Open is called once before any element, with a context usable for
	// state access (no emission).
	Open(ctx Context) error
	// ProcessElement handles one input element.
	ProcessElement(e Event, ctx Context) error
	// OnTimer fires for a previously registered event-time timer.
	OnTimer(ts int64, ctx Context) error
	// OnWatermark is called after the combined watermark advanced to wm and
	// all due timers have fired, before the watermark is forwarded.
	OnWatermark(wm int64, ctx Context) error
	// Close is called after all inputs are exhausted; the context can still
	// emit (final flushes).
	Close(ctx Context) error
}

// BatchContext extends Context for whole-batch operators, which process many
// keys in one callback and therefore re-scope the key themselves as they walk
// the batch.
type BatchContext interface {
	Context
	// SetKey re-scopes Key(), Emit and timer registration to key — the batch
	// equivalent of the per-record key scoping the runtime performs before
	// ProcessElement. The scoping is lazy: the state backend itself is
	// re-scoped on the next State() call, so key runs that never touch state
	// skip the key-hash entirely. Operators holding a state handle cached
	// from an earlier State() call must call State() again after SetKey
	// before using it.
	SetKey(key string)
	// EmitBatch emits events downstream in order, exactly equivalent to
	// calling Emit on each, with the per-record routing dispatch amortized
	// over the slice: forward edges bulk-append into the open exchange batch
	// and hash edges reuse the previous record's route across key runs. The
	// slice is not retained.
	EmitBatch(events []Event)
}

// BatchOperator is an optional Operator extension: the runtime delivers each
// record batch to an operator implementing it as a single ProcessBatch call;
// every other operator gets one ProcessElement call per record.
//
// batch is the pooled exchange batch itself, in arrival order. The operator
// owns it for the duration of the call and may compact it in place, but must
// not retain it or any sub-slice or element pointer of it: the runtime
// recycles it when the call returns (streamvet's poolretain analyzer enforces
// this). Copy what must outlive the call.
//
// Batch boundaries depend on scheduling (a batch ships when full, before a
// control message, or when its sender runs out of input), so ProcessBatch must
// be equivalent to calling ProcessElement on each record in order — same
// state contents, same timer registrations, same emissions in the same order,
// bit for bit — whatever the batch holds.
type BatchOperator interface {
	Operator
	ProcessBatch(batch []Event, ctx BatchContext) error
}

// Snapshotter is an optional Operator extension for operators that carry
// instance-local state outside the managed state backend. The engine includes
// the custom bytes in checkpoints.
type Snapshotter interface {
	SnapshotCustom() ([]byte, error)
	RestoreCustom(data []byte) error
}

// BaseOperator provides no-op defaults; embed it to implement only the hooks
// you need.
type BaseOperator struct{}

// Open implements Operator.
func (BaseOperator) Open(Context) error { return nil }

// ProcessElement implements Operator.
func (BaseOperator) ProcessElement(Event, Context) error { return nil }

// OnTimer implements Operator.
func (BaseOperator) OnTimer(int64, Context) error { return nil }

// OnWatermark implements Operator.
func (BaseOperator) OnWatermark(int64, Context) error { return nil }

// Close implements Operator.
func (BaseOperator) Close(Context) error { return nil }

// OperatorFactory builds one Operator per parallel instance.
type OperatorFactory func() Operator

// mapOperator applies a user function to each element.
type mapOperator struct {
	BaseOperator
	fn func(Event, Context) error
	// xform, when non-nil, is the pure per-event form of fn (Map and Filter
	// nodes): it never touches the context, so the whole-batch path can
	// collect outputs into a scratch batch and emit them in bulk.
	xform func(Event) (Event, bool)
}

// ProcessElement invokes the mapped function.
func (m *mapOperator) ProcessElement(e Event, ctx Context) error { return m.fn(e, ctx) }

// ProcessBatch implements BatchOperator: one callback per batch with lazy
// key scoping, eliding the per-record dispatch and key-hash overhead that
// dominates stateless map/filter/flatMap nodes. Pure transforms (Map/Filter)
// additionally batch their output, amortizing the downstream routing too.
func (m *mapOperator) ProcessBatch(batch []Event, ctx BatchContext) error {
	if m.xform != nil {
		// Transform in place: the batch is owned by this instance until the
		// runtime recycles it after ProcessBatch returns, so compacting the
		// outputs into its prefix avoids a scratch buffer and a second copy.
		// EmitBatch copies the events onward before returning.
		out := batch[:0]
		for i := range batch {
			if e, ok := m.xform(batch[i]); ok {
				out = append(out, e)
			}
		}
		ctx.EmitBatch(out)
		return nil
	}
	for i := range batch {
		ctx.SetKey(batch[i].Key)
		if err := m.fn(batch[i], ctx); err != nil {
			return err
		}
	}
	return nil
}

// MapFunc wraps a per-element function (which may emit zero or more events)
// into an OperatorFactory. It is the building block for Map, Filter and
// FlatMap in the builder API.
func MapFunc(fn func(Event, Context) error) OperatorFactory {
	return func() Operator { return &mapOperator{fn: fn} }
}

// sinkOperator terminates a stream into a user callback.
type sinkOperator struct {
	BaseOperator
	fn func(Event) error
}

// ProcessElement invokes the sink callback.
func (s *sinkOperator) ProcessElement(e Event, _ Context) error { return s.fn(e.Clone()) }

// ProcessBatch implements BatchOperator.
func (s *sinkOperator) ProcessBatch(batch []Event, _ BatchContext) error {
	for i := range batch {
		if err := s.fn(batch[i].Clone()); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a copy of the event. Values are shared; callers that mutate
// values across operator boundaries must copy them explicitly.
func (e Event) Clone() Event { return e }

// SinkFunc wraps a per-element callback into an OperatorFactory for sinks.
func SinkFunc(fn func(Event) error) OperatorFactory {
	return func() Operator { return &sinkOperator{fn: fn} }
}
