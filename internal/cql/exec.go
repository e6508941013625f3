package cql

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Row is one tuple: column name -> value (float64, string, bool or int64;
// int64 values are coerced to float64 in expressions). The executor never
// writes to a Row it was given or has returned; neither should its callers.
type Row map[string]any

// OutputKind marks a stream output as an insertion or a deletion delta.
type OutputKind int

const (
	// Insert marks a tuple added to the result relation.
	Insert OutputKind = iota
	// Delete marks a tuple removed from the result relation.
	Delete
)

// Output is one emitted stream element.
type Output struct {
	Ts   int64
	Kind OutputKind
	Row  Row
}

// Tuple is one input element: a row of the named stream at an instant.
type Tuple struct {
	Stream string
	Ts     int64
	Row    Row
}

// Delta is an Output in column form: Vals[i] is the cell of column Cols[i],
// and Cols is sorted by name. Both slices are shared (Cols between all the
// deltas of a plan with fixed columns) and must not be written to.
type Delta struct {
	Ts   int64
	Kind OutputKind
	Cols []string
	Vals []any
}

// Row returns the delta's row as a map.
func (d Delta) Row() Row {
	r := make(Row, len(d.Cols))
	for i, c := range d.Cols {
		r[c] = d.Vals[i]
	}
	return r
}

// Executor maintains one continuous query incrementally: a pushed tuple
// enters its windows as +tuple, leaves them later as -tuple, and each such
// change flows through join, filter, grouping and projection as a change to
// the result relation, from which ISTREAM, DSTREAM or RSTREAM output is
// derived. Nothing is re-evaluated.
//
// The output, timestamps included, is a function of the pushed tuple
// sequence alone. The relation changes in steps, and each step's output is
// sorted by row: every Push is a step at the tuple's instant; the tuples a
// [RANGE n] or [NOW] window drops at instant ts+n (ts+1) are a step at that
// instant, which precedes any tuple stamped with it; and a query with SLIDE s
// merges everything up to and including each instant b·s into one step at
// b·s. A step is emitted once a later tuple or AdvanceTo shows that time has
// reached it, so AdvanceTo makes output appear earlier and never changes it.
//
// Tuples must be pushed in non-decreasing timestamp order (pair with an
// upstream reorder stage for disordered inputs); a tuple older than the
// executor's clock is treated as arriving now. After an error the executor
// must be discarded.
type Executor struct {
	*plan
	env []Row

	// now is the latest instant time is known to have reached; every step at
	// or before it has been emitted, except the slide boundary pending below.
	now     int64
	started bool
	// With SLIDE, dirty says the windows changed since the last boundary
	// evaluated and pending is the boundary those changes belong to.
	// evaluated says pending has been evaluated and a later change belongs to
	// a later boundary.
	dirty     bool
	evaluated bool
	pending   int64

	step    []change
	bag     map[string]*bagRow // the result relation, kept for RSTREAM only
	rel     []*bagRow          // scratch: bag in output order
	keyBuf  []byte
	out     []Delta // where the current call's outputs go
	scratch []Delta // Push and AdvanceTo's reusable dst
}

// row is one result row; key is its canonical form, computed when a step
// needs to order or match rows.
type row struct {
	cols []string
	vals []any
	key  string
}

// change is one row entering (+1) or leaving (-1) the result relation.
type change struct {
	sign int
	r    row
}

type bagRow struct {
	r row
	n int
}

// NewExecutor validates and prepares a parsed query.
func NewExecutor(stmt *SelectStmt) (*Executor, error) {
	p, err := compile(stmt)
	if err != nil {
		return nil, err
	}
	ex := &Executor{plan: p, env: make([]Row, len(p.refs))}
	if p.emit == EmitRStream {
		ex.bag = map[string]*bagRow{}
	}
	return ex, nil
}

// Streams returns the distinct stream names the query reads from, in FROM
// order — serving layers use this to validate references and route taps.
func (ex *Executor) Streams() []string {
	var out []string
	for _, r := range ex.refs {
		if !slices.Contains(out, r.stream) {
			out = append(out, r.stream)
		}
	}
	return out
}

// MustPrepare parses and prepares a query, panicking on error.
func MustPrepare(src string) *Executor {
	ex, err := Prepare(src)
	if err != nil {
		panic(err)
	}
	return ex
}

// Prepare parses and validates a query.
func Prepare(src string) (*Executor, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return NewExecutor(stmt)
}

// Push feeds one tuple into the named stream at the given timestamp and
// returns the outputs it completes.
func (ex *Executor) Push(stream string, ts int64, row Row) ([]Output, error) {
	var err error
	ex.scratch, err = ex.PushBatch([]Tuple{{Stream: stream, Ts: ts, Row: row}}, ex.scratch[:0])
	return outputs(ex.scratch), err
}

// AdvanceTo tells the executor that no tuple stamped ts or earlier will
// follow — a watermark — and returns the outputs that completes: windows
// emptying with no arrival to show it, and slide boundaries up to ts.
func (ex *Executor) AdvanceTo(ts int64) ([]Output, error) {
	var err error
	ex.scratch, err = ex.Advance(ts, ex.scratch[:0])
	return outputs(ex.scratch), err
}

// PushBatch is Push for a run of tuples, with the outputs in column form
// appended to dst. On error the outputs up to the failing tuple are returned
// with it.
func (ex *Executor) PushBatch(tuples []Tuple, dst []Delta) ([]Delta, error) {
	ex.out = dst
	var err error
	for i := range tuples {
		if err = ex.push(tuples[i].Stream, tuples[i].Ts, tuples[i].Row); err != nil {
			break
		}
	}
	dst, ex.out = ex.out, nil
	return dst, err
}

// Advance is AdvanceTo with the outputs in column form appended to dst.
func (ex *Executor) Advance(ts int64, dst []Delta) ([]Delta, error) {
	ex.out = dst
	err := ex.advance(ts, ts)
	dst, ex.out = ex.out, nil
	return dst, err
}

func outputs(ds []Delta) []Output {
	if len(ds) == 0 {
		return nil
	}
	out := make([]Output, len(ds))
	for i, d := range ds {
		out[i] = Output{Ts: d.Ts, Kind: d.Kind, Row: d.Row()}
	}
	return out
}

func (ex *Executor) push(stream string, ts int64, r Row) error {
	matched := false
	for _, rf := range ex.refs {
		matched = matched || rf.stream == stream
	}
	if !matched {
		return fmt.Errorf("cql: tuple for unknown stream %q", stream)
	}
	if ex.started && ts < ex.now {
		ts = ex.now
	}
	// The tuple shows that time has reached ts, and that every instant
	// before ts has all its tuples.
	if err := ex.advance(ts, satAdd(ts, -1)); err != nil {
		return err
	}
	for i, rf := range ex.refs {
		if rf.stream == stream {
			if err := ex.insert(i, ts, r); err != nil {
				return err
			}
		}
	}
	return ex.changed(ts)
}

// advance emits, in time order, every step that is now known complete: time
// has reached instant now, and no tuple stamped closed or earlier follows.
func (ex *Executor) advance(now, closed int64) error {
	for {
		e, expiring := ex.nextExpiry()
		if expiring && e <= now && (!ex.dirty || e <= ex.pending) {
			if err := ex.expire(e); err != nil {
				return err
			}
			if err := ex.changed(e); err != nil {
				return err
			}
			continue
		}
		if ex.dirty && ex.pending <= closed {
			ex.dirty, ex.evaluated = false, true
			if err := ex.endStep(ex.pending); err != nil {
				return err
			}
			continue
		}
		break
	}
	if !ex.started || now > ex.now {
		ex.now, ex.started = now, true
	}
	return nil
}

// changed records that the windows changed at instant ts: a step of its own,
// or part of the step at the next slide boundary.
func (ex *Executor) changed(ts int64) error {
	if ex.slide == 0 {
		return ex.endStep(ts)
	}
	if !ex.dirty {
		// A boundary is evaluated once: a tuple that arrives for one already
		// evaluated (it was stamped at or before a watermark) joins the next.
		b := ceilTo(ts, ex.slide)
		if ex.evaluated && b <= ex.pending {
			b = satAdd(ex.pending, ex.slide)
		}
		ex.dirty, ex.pending = true, b
	}
	return nil
}

// expiry is the instant a tuple stamped ts leaves r's window.
func (r *ref) expiry(ts int64) int64 {
	if r.win.Kind == WindowNow {
		return satAdd(ts, 1)
	}
	return satAdd(ts, r.win.N)
}

// nextExpiry is the earliest instant at which a retained tuple or a pane
// leaves its window.
func (ex *Executor) nextExpiry() (int64, bool) {
	if g := ex.paned(); g != nil {
		return g.paneExpiry()
	}
	e, any := int64(math.MaxInt64), false
	for _, r := range ex.refs {
		if r.head < len(r.q) && (r.win.Kind == WindowNow || r.win.Kind == WindowRange) {
			e, any = min(e, r.expiry(r.q[r.head].ts)), true
		}
	}
	return e, any
}

// expire retracts everything that leaves a window at instant e.
func (ex *Executor) expire(e int64) error {
	if g := ex.paned(); g != nil {
		g.expirePanes(e)
		return nil
	}
	for i, r := range ex.refs {
		if r.win.Kind != WindowNow && r.win.Kind != WindowRange {
			continue
		}
		for r.head < len(r.q) && r.expiry(r.q[r.head].ts) <= e {
			if err := ex.delta(i, r.pop(), -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// pop removes and returns the oldest live tuple.
func (r *ref) pop() tuple {
	t := r.q[r.head]
	r.q[r.head] = tuple{}
	r.head++
	if r.head == len(r.q) {
		r.q, r.head = r.q[:0], 0
	} else if r.head >= 64 && r.head*2 >= len(r.q) {
		n := copy(r.q, r.q[r.head:])
		clear(r.q[n:])
		r.q, r.head = r.q[:n], 0
	}
	return t
}

// insert applies +tuple to the i-th ref's window, and the -tuple of the row
// a full [ROWS n] window drops to make room.
func (ex *Executor) insert(i int, ts int64, row Row) error {
	r := ex.refs[i]
	if r.win.N == 0 && (r.win.Kind == WindowRange || r.win.Kind == WindowRows) {
		return nil // an empty window: the tuple is never in it
	}
	t := tuple{ts: ts, row: row}
	if err := ex.delta(i, t, +1); err != nil {
		return err
	}
	if !r.retain {
		return nil
	}
	r.q = append(r.q, t)
	if r.win.Kind == WindowRows && int64(len(r.q)-r.head) > r.win.N {
		return ex.delta(i, r.pop(), -1)
	}
	return nil
}

// delta applies one tuple entering (+1) or leaving (-1) the i-th window to
// everything downstream: the tuple is joined with the live tuples of the
// other windows, and each binding that passes JOIN ON and WHERE changes the
// result.
func (ex *Executor) delta(i int, t tuple, sign int) error {
	if g := ex.paned(); g != nil {
		p := g.paneFor(t.ts)
		ex.env[0] = t.row
		if ok, err := ex.passes(); !ok {
			return err
		}
		return g.addToPane(p, ex.env)
	}
	return ex.bind(0, i, t.row, sign)
}

// bind enumerates the bindings of refs j.. around the tuple that changed at
// ref i.
func (ex *Executor) bind(j, i int, changed Row, sign int) error {
	if j == len(ex.refs) {
		return ex.bound(sign)
	}
	if j == i {
		return ex.bindRow(j, i, changed, changed, sign)
	}
	r := ex.refs[j]
	for k := r.head; k < len(r.q); k++ {
		if err := ex.bindRow(j, i, r.q[k].row, changed, sign); err != nil {
			return err
		}
	}
	return nil
}

func (ex *Executor) bindRow(j, i int, row, changed Row, sign int) error {
	ex.env[j] = row
	if on := ex.refs[j].on; on != nil {
		if ok, err := evalBool(on, ex.env); !ok {
			return err
		}
	}
	return ex.bind(j+1, i, changed, sign)
}

// bound applies one complete binding entering or leaving the join.
func (ex *Executor) bound(sign int) error {
	if ok, err := ex.passes(); !ok {
		return err
	}
	if ex.group != nil {
		return ex.group.apply(ex.env, int64(sign))
	}
	r, err := ex.project(ex.env)
	if err != nil {
		return err
	}
	ex.step = append(ex.step, change{sign: sign, r: r})
	return nil
}

func (ex *Executor) passes() (bool, error) {
	if ex.where == nil {
		return true, nil
	}
	return evalBool(ex.where, ex.env)
}

// endStep closes the step at instant ts: the changes it accumulated become
// the net change of the result relation, and that the query's output.
func (ex *Executor) endStep(ts int64) error {
	var err error
	if ex.group != nil {
		ex.step, err = ex.group.flush(ex.step)
	}
	if err == nil {
		if ex.emit == EmitRStream {
			ex.emitRelation(ts)
		} else {
			ex.emitNet(ts)
		}
	}
	clear(ex.step)
	ex.step = ex.step[:0]
	return err
}

// emitNet emits the rows the step added (ISTREAM) or removed (DSTREAM).
func (ex *Executor) emitNet(ts int64) {
	want, kind := +1, Insert
	if ex.emit == EmitDStream {
		want, kind = -1, Delete
	}
	wanted := 0
	for _, c := range ex.step {
		if c.sign == want {
			wanted++
		}
	}
	if wanted == 0 {
		return
	}
	if len(ex.step) == 1 {
		ex.out = append(ex.out, Delta{Ts: ts, Kind: kind, Cols: ex.step[0].r.cols, Vals: ex.step[0].r.vals})
		return
	}
	// Rows that both entered and left cancel as a bag; what remains goes out
	// in row order.
	for i := range ex.step {
		ex.keyRow(&ex.step[i].r)
	}
	slices.SortFunc(ex.step, func(a, b change) int { return strings.Compare(a.r.key, b.r.key) })
	for i := 0; i < len(ex.step); {
		j, net := i, 0
		var r row
		for ; j < len(ex.step) && ex.step[j].r.key == ex.step[i].r.key; j++ {
			net += ex.step[j].sign
			if ex.step[j].sign == want {
				r = ex.step[j].r
			}
		}
		for n := net * want; n > 0; n-- {
			ex.out = append(ex.out, Delta{Ts: ts, Kind: kind, Cols: r.cols, Vals: r.vals})
		}
		i = j
	}
}

func (ex *Executor) keyRow(r *row) {
	if r.key == "" {
		ex.keyBuf = appendRowKey(ex.keyBuf[:0], r.cols, r.vals)
		r.key = string(ex.keyBuf)
	}
}

// emitRelation applies the step to the materialised relation and emits all
// of it, in row order.
func (ex *Executor) emitRelation(ts int64) {
	for i := range ex.step {
		c := &ex.step[i]
		ex.keyRow(&c.r)
		b := ex.bag[c.r.key]
		if b == nil {
			b = &bagRow{r: c.r}
			ex.bag[c.r.key] = b
		}
		if b.n += c.sign; b.n == 0 {
			delete(ex.bag, c.r.key)
		}
	}
	ex.rel = ex.rel[:0]
	for _, b := range ex.bag {
		ex.rel = append(ex.rel, b)
	}
	slices.SortFunc(ex.rel, func(a, b *bagRow) int { return strings.Compare(a.r.key, b.r.key) })
	for _, b := range ex.rel {
		for n := b.n; n > 0; n-- {
			ex.out = append(ex.out, Delta{Ts: ts, Kind: Insert, Cols: b.r.cols, Vals: b.r.vals})
		}
	}
	clear(ex.rel)
}

func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	if b < 0 && a < math.MinInt64-b {
		return math.MinInt64
	}
	return a + b
}

// ceilTo rounds t up to a multiple of w > 0.
func ceilTo(t, w int64) int64 {
	b := t - t%w
	if t%w > 0 {
		b = satAdd(b, w)
	}
	return b
}
