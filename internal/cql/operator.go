package cql

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/state"
)

func init() {
	state.RegisterType(Row{})
}

// Operator runs a continuous CQL query as a dataflow operator: each input
// event's value must be a Row (or convertible via the extract function);
// emitted stream deltas flow downstream with the query's relation-to-stream
// semantics. The executor's windows live in the operator instance, so run it
// with parallelism 1 unless the query is partitionable by key.
func Operator(s *core.Stream, name, query, inputStream string, extract func(e core.Event) (Row, bool)) *core.Stream {
	fac := func() core.Operator {
		return &cqlOperator{query: query, stream: inputStream, extract: extract}
	}
	return s.ProcessWith(name, fac, 1)
}

type cqlOperator struct {
	core.BaseOperator
	query   string
	stream  string
	extract func(e core.Event) (Row, bool)
	ex      *Executor
	tuples  []Tuple // scratch
	deltas  []Delta // scratch
}

// Open compiles the query.
func (o *cqlOperator) Open(core.Context) error {
	ex, err := Prepare(o.query)
	if err != nil {
		return fmt.Errorf("cql operator: %w", err)
	}
	o.ex = ex
	return nil
}

func (o *cqlOperator) ProcessElement(e core.Event, ctx core.Context) error {
	return o.push(ctx, e)
}

// ProcessBatch implements core.BatchOperator: the batch goes through the
// executor in one PushBatch, in arrival order, so output deltas are identical
// to the per-record path.
func (o *cqlOperator) ProcessBatch(cols *core.Columns, ctx core.BatchContext) error {
	return o.push(ctx, cols.Events...)
}

func (o *cqlOperator) push(ctx core.Context, events ...core.Event) error {
	o.tuples = o.tuples[:0]
	for _, e := range events {
		if row, ok := o.extract(e); ok {
			o.tuples = append(o.tuples, Tuple{Stream: o.stream, Ts: e.Timestamp, Row: row})
		}
	}
	var err error
	o.deltas, err = o.ex.PushBatch(o.tuples, o.deltas[:0])
	o.emit(ctx)
	return err
}

// OnWatermark advances the executor so pure expirations (DSTREAM deltas) are
// observed even without new arrivals.
func (o *cqlOperator) OnWatermark(wm int64, ctx core.Context) error {
	if wm < 0 || wm > 1<<60 {
		return nil // ignore the sentinel final watermark
	}
	var err error
	o.deltas, err = o.ex.Advance(wm, o.deltas[:0])
	o.emit(ctx)
	return err
}

func (o *cqlOperator) emit(ctx core.Context) {
	for _, d := range o.deltas {
		kind := "+"
		if d.Kind == Delete {
			kind = "-"
		}
		ctx.Emit(core.Event{Key: kind, Timestamp: d.Ts, Value: d.Row()})
	}
	clear(o.deltas)
}
