package window

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/state"
)

// Aggregate defines how window contents are accumulated and emitted.
//
// An accumulator may be a cell, a *float64 or *int64 that Add, AddBatch and
// Merge update in place and return (see state.MapState). The window operator
// Puts an accumulator only when it created it, or when Add or AddBatch
// returned anything but the cell its state Get returned, so a warm cell costs
// a record one Get and no Put. A restore yields a cell's plain scalar: Add and
// AddBatch must accept it and return a new cell wrapping it, which the
// operator then Puts. Emit must copy the value out of a cell: an emitted event
// that pointed at it would change with the next record.
type Aggregate struct {
	// Create returns an empty accumulator.
	Create func() any
	// Add folds one element into the accumulator.
	Add func(acc any, e core.Event) any
	// Merge combines two accumulators; required for session windows.
	Merge func(a, b any) any
	// Emit produces the result event for a closed (or late-updated) window.
	Emit func(key string, w Window, acc any) core.Event
	// AddBatch, when non-nil, folds a same-key, same-window segment of an
	// exchange batch into the accumulator in one call — the whole-batch
	// path's fold. seg is only valid for the duration of the call. Where a
	// batch is cut depends on scheduling, so the result must be bit-identical
	// to folding the segment element by element with Add; re-associating a
	// float sum, as an unrolled kernel does, would make output depend on
	// scheduling.
	AddBatch func(acc any, seg []core.Event) any
}

// FloatAggregate builds an Aggregate over float64 values using an AggFn and
// a value extractor. Its accumulator is a *float64 cell, so Add and AddBatch
// allocate only to wrap a restored scalar.
func FloatAggregate(fn AggFn, get func(core.Event) float64) Aggregate {
	return Aggregate{
		Create: func() any { c := fn.Identity; return &c },
		Add: func(acc any, e core.Event) any {
			c := floatCell(acc)
			*c = fn.Combine(*c, get(e))
			return c
		},
		Merge: func(a, b any) any {
			c := floatCell(a)
			*c = fn.Combine(*c, *floatCell(b))
			return c
		},
		Emit: func(key string, w Window, acc any) core.Event {
			return core.Event{Key: key, Timestamp: w.End - 1, Value: *floatCell(acc)}
		},
		AddBatch: func(acc any, seg []core.Event) any {
			c := floatCell(acc)
			a := *c
			for i := range seg {
				a = fn.Combine(a, get(seg[i]))
			}
			*c = a
			return c
		},
	}
}

// CountAggregate counts elements per window. Its accumulator is an *int64
// cell.
func CountAggregate() Aggregate {
	return Aggregate{
		Create: func() any { return new(int64) },
		Add: func(acc any, _ core.Event) any {
			c := intCell(acc)
			*c++
			return c
		},
		Merge: func(a, b any) any {
			c := intCell(a)
			*c += *intCell(b)
			return c
		},
		Emit: func(key string, w Window, acc any) core.Event {
			return core.Event{Key: key, Timestamp: w.End - 1, Value: *intCell(acc)}
		},
		AddBatch: func(acc any, seg []core.Event) any {
			c := intCell(acc)
			*c += int64(len(seg))
			return c
		},
	}
}

// floatCell returns acc's cell, wrapping the plain float64 a restore yields
// in a new one.
func floatCell(acc any) *float64 {
	if c, ok := acc.(*float64); ok {
		return c
	}
	c := acc.(float64)
	return &c
}

// intCell is floatCell for int64 accumulators.
func intCell(acc any) *int64 {
	if c, ok := acc.(*int64); ok {
		return c
	}
	c := acc.(int64)
	return &c
}

// inPlace reports whether next is the cell acc, which the state Get that
// returned acc already counted as written.
func inPlace(acc, next any) bool { return state.IsCell(acc) && next == acc }

// Option customises the window operator.
type Option func(*operator)

// WithAllowedLateness keeps window state for `late` ms past the watermark,
// re-emitting updated results when late elements arrive (§2.2's second
// strategy: ingest disorder and adjust computations in face of late data).
func WithAllowedLateness(late int64) Option {
	return func(o *operator) { o.lateness = late }
}

// WithLateCounter records dropped-late elements into the given counter.
func WithLateCounter(c *metrics.Counter) Option {
	return func(o *operator) { o.lateDrops = c }
}

// Apply attaches a window operator to a keyed stream.
func Apply(s *core.Stream, name string, a Assigner, agg Aggregate, opts ...Option) *core.Stream {
	return s.Process(name, operatorFactory(a, agg, opts...))
}

func operatorFactory(a Assigner, agg Aggregate, opts ...Option) core.OperatorFactory {
	return func() core.Operator {
		op := &operator{assigner: a, agg: agg}
		op.fixedEnd, _ = a.(FixedEnd)
		op.point, _ = a.(PointAssigner)
		for _, o := range opts {
			o(op)
		}
		return op
	}
}

// operator is the engine window operator: accumulators live in managed keyed
// state (namespaced by window), results fire on event-time timers, and late
// data is handled per the allowed-lateness policy — so window state is
// checkpointed, restored and rescaled like any other managed state.
type operator struct {
	core.BaseOperator
	assigner  Assigner
	agg       Aggregate
	fixedEnd  FixedEnd      // non-nil when the window is derivable from a timer ts
	point     PointAssigner // non-nil when each ts maps to exactly one window
	lateness  int64
	lateDrops *metrics.Counter
	st        state.MapState // window state handle, resolved once per instance
	// memoWin/memoKey memoize the last stateKey result for the whole-batch
	// path; see cachedStateKey.
	memoWin Window
	memoKey string
}

// state returns the window state handle, resolving it on first use. The
// backend is fixed for the operator instance's lifetime (restores mutate it
// in place), so the handle can be kept across records.
func (o *operator) state(ctx core.Context) state.MapState {
	if o.st == nil {
		o.st = ctx.State().Map(winState)
	}
	return o.st
}

const winState = "windows"

func winKey(w Window) string {
	// Built in one append pass: this runs per record, and the two-FormatInt
	// + concat form costs three allocations against one here.
	var buf [42]byte
	b := strconv.AppendInt(buf[:0], w.Start, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, w.End, 10)
	return string(b)
}

// endKey is the state key used by FixedEnd assigners: the start is derivable
// from the end, so the key is just the end timestamp — cheaper to build and
// hash than the full "start|end" form, which only merging sessions (and
// custom assigners, whose OnTimer scan must parse keys back) need.
func endKey(end int64) string {
	var buf [20]byte
	return string(strconv.AppendInt(buf[:0], end, 10))
}

// stateKey picks the key encoding matching the operator's OnTimer strategy.
func (o *operator) stateKey(w Window) string {
	if o.fixedEnd != nil {
		return endKey(w.End)
	}
	return winKey(w)
}

// cachedStateKey memoizes the last formatted state key. The whole-batch path
// commonly revisits one window across many key runs (batches span far less
// event time than a window), so the timestamp formatting is paid once per
// window change instead of once per segment. stateKey is a pure function of
// the window, so the memo can safely persist across batches.
func (o *operator) cachedStateKey(w Window) string {
	if o.memoKey == "" || w != o.memoWin {
		o.memoWin, o.memoKey = w, o.stateKey(w)
	}
	return o.memoKey
}

func parseWinKey(s string) (Window, bool) {
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return Window{}, false
	}
	start, err1 := strconv.ParseInt(s[:i], 10, 64)
	end, err2 := strconv.ParseInt(s[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return Window{}, false
	}
	return Window{Start: start, End: end}, true
}

func (o *operator) ProcessElement(e core.Event, ctx core.Context) error {
	wm := ctx.CurrentWatermark()
	if o.point != nil {
		// Single-window assigners skip Assign's per-record slice allocation.
		return o.addToWindow(o.point.AssignPoint(e.Timestamp), e, ctx, wm)
	}
	for _, w := range o.assigner.Assign(e.Timestamp) {
		if err := o.addToWindow(w, e, ctx, wm); err != nil {
			return err
		}
	}
	return nil
}

// ProcessBatch implements core.BatchOperator: the whole-batch path.
// The exchange flushes open batches before every control message, so the
// watermark — and with it every lateness decision — is constant across the
// batch. Records are walked in arrival order, grouped into runs of equal
// keys and, within a run, into segments assigned to the same window, so key
// scoping, state lookups, timer registration and the aggregate fold are paid
// once per segment instead of once per record. Emission order, state
// contents and timer sets are identical to the per-record path.
func (o *operator) ProcessBatch(batch []core.Event, ctx core.BatchContext) error {
	n := len(batch)
	fast := o.point != nil && o.agg.AddBatch != nil && !o.assigner.IsSession()
	for i := 0; i < n; {
		key := batch[i].Key
		j := i + 1
		for j < n && batch[j].Key == key {
			j++
		}
		ctx.SetKey(key)
		ctx.State() // re-scope the backend for the cached o.st handle
		if fast {
			if err := o.addRun(batch[i:j], ctx); err != nil {
				return err
			}
		} else {
			for r := i; r < j; r++ {
				if err := o.ProcessElement(batch[r], ctx); err != nil {
					return err
				}
			}
		}
		i = j
	}
	return nil
}

// addRun folds one same-key run of the batch into its windows, segment by
// segment, where a segment is a maximal stretch of consecutive records the
// point assigner maps to the same window.
func (o *operator) addRun(run []core.Event, ctx core.BatchContext) error {
	wm := ctx.CurrentWatermark()
	st := o.state(ctx)
	for s := 0; s < len(run); {
		w := o.point.AssignPoint(run[s].Timestamp)
		e := s + 1
		for e < len(run) && o.point.AssignPoint(run[e].Timestamp) == w {
			e++
		}
		global := w.End == maxInt64
		switch {
		case !global && w.End+o.lateness <= wm:
			// Too late even for the lateness allowance: drop the segment.
			if o.lateDrops != nil {
				o.lateDrops.Add(int64(e - s))
			}
		case !global && w.End <= wm:
			// Late but allowed: the per-record path re-emits the updated
			// result after every element; replay these one by one so the
			// emission stream stays identical.
			for r := s; r < e; r++ {
				if err := o.addToWindow(w, run[r], ctx, wm); err != nil {
					return err
				}
			}
		default:
			k := o.cachedStateKey(w)
			acc, ok := st.Get(k)
			if !ok {
				acc = o.agg.Create()
				ctx.RegisterEventTimeTimer(w.End)
				if o.lateness > 0 && !global {
					ctx.RegisterEventTimeTimer(w.End + o.lateness)
				}
			}
			if next := o.agg.AddBatch(acc, run[s:e]); !ok || !inPlace(acc, next) {
				st.Put(k, next)
			}
		}
		s = e
	}
	return nil
}

// addToWindow folds one element into one assigned window.
func (o *operator) addToWindow(w Window, e core.Event, ctx core.Context, wm int64) error {
	// Global windows (End == maxInt64) are never late and fire only on
	// the final watermark; guard against End+lateness overflow.
	global := w.End == maxInt64
	if !global && w.End+o.lateness <= wm {
		// Too late even for the lateness allowance: drop.
		if o.lateDrops != nil {
			o.lateDrops.Inc()
		}
		return nil
	}
	if o.assigner.IsSession() {
		return o.addSession(w, e, ctx)
	}
	st := o.state(ctx)
	k := o.stateKey(w)
	acc, ok := st.Get(k)
	if !ok {
		acc = o.agg.Create()
		ctx.RegisterEventTimeTimer(w.End)
		if o.lateness > 0 && !global {
			ctx.RegisterEventTimeTimer(w.End + o.lateness)
		}
	}
	next := o.agg.Add(acc, e)
	if !ok || !inPlace(acc, next) {
		st.Put(k, next)
	}
	if !global && w.End <= wm {
		// Late but allowed: re-emit the updated result immediately.
		ctx.Emit(o.agg.Emit(ctx.Key(), w, next))
	}
	return nil
}

// addSession inserts an element into session state, merging every session
// window of the key that the new element bridges.
func (o *operator) addSession(w Window, e core.Event, ctx core.Context) error {
	if o.agg.Merge == nil {
		return fmt.Errorf("window: session windows require Aggregate.Merge")
	}
	st := o.state(ctx)
	merged := w
	acc := o.agg.Create()
	for _, k := range st.Keys() {
		old, ok := parseWinKey(k)
		if !ok || !merged.Intersects(old) {
			continue
		}
		v, _ := st.Get(k)
		acc = o.agg.Merge(acc, v)
		merged = merged.Cover(old)
		st.Remove(k)
		ctx.DeleteEventTimeTimer(old.End)
	}
	acc = o.agg.Add(acc, e)
	st.Put(winKey(merged), acc)
	ctx.RegisterEventTimeTimer(merged.End)
	return nil
}

// OnTimer fires window results at End and purges state at End+lateness.
func (o *operator) OnTimer(ts int64, ctx core.Context) error {
	st := o.state(ctx)
	if o.fixedEnd != nil {
		// Fixed-size windows: look up the firing window directly instead of
		// scanning the key's whole open set.
		if w, ok := o.fixedEnd.WindowEnding(ts); ok {
			k := o.cachedStateKey(w)
			if acc, ok := st.Get(k); ok {
				ctx.Emit(o.agg.Emit(ctx.Key(), w, acc))
				if o.lateness == 0 || w.End == maxInt64 {
					st.Remove(k)
				}
			}
		}
		if o.lateness > 0 {
			if w, ok := o.fixedEnd.WindowEnding(ts - o.lateness); ok && w.End != maxInt64 {
				st.Remove(o.cachedStateKey(w))
			}
		}
		return nil
	}
	for _, k := range st.Keys() {
		w, ok := parseWinKey(k)
		if !ok {
			continue
		}
		if w.End == ts {
			acc, ok := st.Get(k)
			if !ok {
				continue
			}
			ctx.Emit(o.agg.Emit(ctx.Key(), w, acc))
			if o.lateness == 0 || w.End == maxInt64 {
				st.Remove(k)
			}
		}
		if o.lateness > 0 && w.End != maxInt64 && w.End+o.lateness == ts {
			st.Remove(k)
		}
	}
	return nil
}

// CountWindow emits an aggregate every n elements per key (count-based
// tumbling window — the non-temporal window type of 1st-gen systems).
func CountWindow(s *core.Stream, name string, n int64, agg Aggregate) *core.Stream {
	fac := func() core.Operator { return &countWindow{n: n, agg: agg} }
	return s.Process(name, fac)
}

type countWindow struct {
	core.BaseOperator
	n   int64
	agg Aggregate
}

func (o *countWindow) ProcessElement(e core.Event, ctx core.Context) error {
	accSt := ctx.State().Value("acc")
	cntSt := ctx.State().Value("cnt")
	startSt := ctx.State().Value("start")
	acc, ok := accSt.Get()
	if !ok {
		acc = o.agg.Create()
	}
	acc = o.agg.Add(acc, e)
	cnt := int64(1)
	if c, ok := cntSt.Get(); ok {
		cnt = c.(int64) + 1
	}
	// The window's true start is the first buffered element's timestamp,
	// kept in state so it survives checkpoint/restore with the buffer.
	start, haveStart := e.Timestamp, false
	if s, ok := startSt.Get(); ok {
		start, haveStart = s.(int64), true
	}
	if cnt >= o.n {
		ctx.Emit(o.agg.Emit(ctx.Key(), Window{Start: start, End: e.Timestamp + 1}, acc))
		accSt.Clear()
		cntSt.Clear()
		startSt.Clear()
		return nil
	}
	accSt.Set(acc)
	cntSt.Set(cnt)
	if !haveStart {
		startSt.Set(start)
	}
	return nil
}
