package cql

// The evaluator this package shipped before its executor became incremental,
// kept as the reference the differential tests hold the executor to. It
// rebuilds the whole instantaneous relation at every call (cartesian product
// of the windows, filter, group, project) and diffs it against the previous
// one, which is slow and obviously right. The tests drive it at every
// instant the relation can change; see runReference.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// refExecutor evaluates one continuous query at the instants it is told to.
type refExecutor struct {
	stmt *SelectStmt
	wins []*refWin
	// prev is the previous instantaneous result relation as a bag.
	prevCounts map[string]int
	prevRows   map[string]Row
	slide      int64 // 0 without SLIDE
}

type refWin struct {
	ref     StreamRef
	entries []refEntry
}

type refEntry struct {
	ts  int64
	row Row
}

// newRefExecutor validates and prepares a parsed query.
func newRefExecutor(stmt *SelectStmt) (*refExecutor, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("cql: query has no FROM clause")
	}
	names := map[string]bool{}
	ex := &refExecutor{stmt: stmt, prevCounts: map[string]int{}, prevRows: map[string]Row{}}
	for _, ref := range stmt.From {
		n := ref.name()
		if names[n] {
			return nil, fmt.Errorf("cql: duplicate stream binding %q (use AS aliases)", n)
		}
		names[n] = true
		ex.wins = append(ex.wins, &refWin{ref: ref})
		if ref.Window.Slide > 0 {
			// The executor gates evaluation on one shared slide; silently
			// keeping only the last ref's value would make the other windows'
			// SLIDE clauses dead letters.
			if ex.slide > 0 && ex.slide != ref.Window.Slide {
				return nil, fmt.Errorf("cql: FROM refs declare different SLIDE values (%d vs %d); all windowed refs must share one slide", ex.slide, ref.Window.Slide)
			}
			ex.slide = ref.Window.Slide
		}
	}
	// Aggregate queries: every non-aggregate select item must appear in
	// GROUP BY (checked syntactically by string form).
	agg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if !it.Star && isAggregate(it.Expr) {
			agg = true
		}
	}
	if agg {
		groupSet := map[string]bool{}
		for _, g := range stmt.GroupBy {
			groupSet[exprKey(g)] = true
		}
		for _, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("cql: SELECT * is not allowed with aggregation")
			}
			if !isAggregate(it.Expr) && !groupSet[exprKey(it.Expr)] {
				return nil, fmt.Errorf("cql: non-aggregate select item %q not in GROUP BY", exprKey(it.Expr))
			}
		}
	}
	return ex, nil
}

// insert appends one tuple to the windows over its stream. The shipped Push
// went on to evaluate at the tuple's own instant whenever ts/slide changed;
// when to evaluate is now the driver's decision (runReference).
func (ex *refExecutor) insert(stream string, ts int64, row Row) error {
	matched := false
	for _, w := range ex.wins {
		if w.ref.Stream == stream {
			w.entries = append(w.entries, refEntry{ts: ts, row: row})
			matched = true
		}
	}
	if !matched {
		return fmt.Errorf("cql: tuple for unknown stream %q", stream)
	}
	return nil
}

// AdvanceTo evaluates the query at the given instant.
func (ex *refExecutor) AdvanceTo(ts int64) ([]Output, error) {
	for _, w := range ex.wins {
		w.expire(ts)
	}
	rel, err := ex.evaluate()
	if err != nil {
		return nil, err
	}
	return ex.diff(ts, rel), nil
}

// expire applies the stream-to-relation window at instant ts.
func (w *refWin) expire(ts int64) {
	switch w.ref.Window.Kind {
	case WindowUnbounded:
	case WindowNow:
		kept := w.entries[:0]
		for _, e := range w.entries {
			if e.ts == ts {
				kept = append(kept, e)
			}
		}
		w.entries = kept
	case WindowRange:
		cut := ts - w.ref.Window.N
		i := 0
		for i < len(w.entries) && w.entries[i].ts <= cut {
			i++
		}
		w.entries = w.entries[i:]
	case WindowRows:
		if int64(len(w.entries)) > w.ref.Window.N {
			w.entries = w.entries[int64(len(w.entries))-w.ref.Window.N:]
		}
	}
}

// refBinding maps a FROM-ref name to the row bound from its window.
type refBinding map[string]Row

// evaluate computes the instantaneous result relation.
func (ex *refExecutor) evaluate() ([]Row, error) {
	// Cartesian product across windows, filtered by JOIN ON + WHERE.
	bindings := []refBinding{{}}
	for _, w := range ex.wins {
		var next []refBinding
		for _, b := range bindings {
			for _, e := range w.entries {
				nb := make(refBinding, len(b)+1)
				for k, v := range b {
					nb[k] = v
				}
				nb[w.ref.name()] = e.row
				if w.ref.JoinOn != nil {
					ok, err := refEvalBool(w.ref.JoinOn, nb)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				next = append(next, nb)
			}
		}
		bindings = next
	}
	if ex.stmt.Where != nil {
		kept := bindings[:0]
		for _, b := range bindings {
			ok, err := refEvalBool(ex.stmt.Where, b)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, b)
			}
		}
		bindings = kept
	}

	grouped := len(ex.stmt.GroupBy) > 0
	for _, it := range ex.stmt.Items {
		if !it.Star && isAggregate(it.Expr) {
			grouped = true
		}
	}
	if !grouped {
		out := make([]Row, 0, len(bindings))
		for _, b := range bindings {
			row, err := ex.project(b)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
		return out, nil
	}

	// Grouped aggregation.
	groups := map[string][]refBinding{}
	var order []string
	for _, b := range bindings {
		var parts []string
		for _, g := range ex.stmt.GroupBy {
			v, err := refEval(g, b)
			if err != nil {
				return nil, err
			}
			parts = append(parts, keyPart(v))
		}
		k := strings.Join(parts, "\x00")
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	var out []Row
	for _, k := range order {
		gb := groups[k]
		row := Row{}
		for i, it := range ex.stmt.Items {
			v, err := refEvalOverGroup(it.Expr, gb)
			if err != nil {
				return nil, err
			}
			row[it.outName(i)] = v
		}
		if ex.stmt.Having != nil {
			ok, err := refEvalHaving(ex.stmt.Having, gb)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// project builds one output row from a refBinding.
func (ex *refExecutor) project(b refBinding) (Row, error) {
	row := Row{}
	for i, it := range ex.stmt.Items {
		if it.Star {
			if len(ex.wins) == 1 {
				for k, v := range b[ex.wins[0].ref.name()] {
					row[k] = v
				}
			} else {
				for name, r := range b {
					for k, v := range r {
						row[name+"."+k] = v
					}
				}
			}
			continue
		}
		v, err := refEval(it.Expr, b)
		if err != nil {
			return nil, err
		}
		row[it.outName(i)] = v
	}
	return row, nil
}

// diff compares the new relation against the previous instant's and emits
// the configured deltas.
func (ex *refExecutor) diff(ts int64, rel []Row) []Output {
	cur := map[string]int{}
	curRows := map[string]Row{}
	for _, r := range rel {
		k := rowKey(r)
		cur[k]++
		curRows[k] = r
	}
	var out []Output
	switch ex.stmt.Emit {
	case EmitRStream:
		for _, r := range rel {
			out = append(out, Output{Ts: ts, Kind: Insert, Row: r})
		}
	case EmitIStream:
		for k, n := range cur {
			for d := ex.prevCounts[k]; d < n; d++ {
				out = append(out, Output{Ts: ts, Kind: Insert, Row: curRows[k]})
			}
		}
	case EmitDStream:
		for k, n := range ex.prevCounts {
			for d := cur[k]; d < n; d++ {
				out = append(out, Output{Ts: ts, Kind: Delete, Row: ex.prevRows[k]})
			}
		}
	}
	ex.prevCounts = cur
	ex.prevRows = curRows
	sort.Slice(out, func(i, j int) bool { return rowKey(out[i].Row) < rowKey(out[j].Row) })
	return out
}

// rowKey canonicalises a row for bag comparison.
func rowKey(r Row) string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, keyPart(r[k]))
	}
	return sb.String()
}

// keyPart canonicalises one value for rowKey and GROUP BY keys with a type
// tag, so values that print alike but differ in type — int64(1), float64(1),
// "1" — cannot collide (a collision corrupts the IStream/DStream bag diff and
// merges distinct groups). Strings are quoted so embedded separators cannot
// forge a composite key either.
func keyPart(v any) string {
	switch x := v.(type) {
	case nil:
		return "_"
	case string:
		return "s:" + strconv.Quote(x)
	case bool:
		return "b:" + strconv.FormatBool(x)
	case int64:
		return "i:" + strconv.FormatInt(x, 10)
	case float64:
		return "f:" + strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprintf("%T:%v", x, x)
	}
}

// refEval evaluates a scalar expression under a refBinding.
func refEval(e Expr, b refBinding) (any, error) {
	switch x := e.(type) {
	case *NumberLit:
		return x.V, nil
	case *StringLit:
		return x.V, nil
	case *BoolLit:
		return x.V, nil
	case *Ident:
		return refLookup(x, b)
	case *Unary:
		v, err := refEval(x.X, b)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			f, err := toNum(v)
			if err != nil {
				return nil, err
			}
			return -f, nil
		case "NOT":
			bv, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("cql: NOT applied to non-boolean %T", v)
			}
			return !bv, nil
		}
		return nil, fmt.Errorf("cql: unknown unary op %q", x.Op)
	case *Binary:
		return refEvalBinary(x, b)
	case *Call:
		return nil, fmt.Errorf("cql: aggregate %s used in scalar context", x.Fn)
	}
	return nil, fmt.Errorf("cql: cannot evaluate %T", e)
}

func refEvalBinary(x *Binary, b refBinding) (any, error) {
	if x.Op == "AND" || x.Op == "OR" {
		l, err := refEval(x.Left, b)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, fmt.Errorf("cql: %s on non-boolean %T", x.Op, l)
		}
		// Short-circuit.
		if x.Op == "AND" && !lb {
			return false, nil
		}
		if x.Op == "OR" && lb {
			return true, nil
		}
		r, err := refEval(x.Right, b)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, fmt.Errorf("cql: %s on non-boolean %T", x.Op, r)
		}
		return rb, nil
	}

	l, err := refEval(x.Left, b)
	if err != nil {
		return nil, err
	}
	r, err := refEval(x.Right, b)
	if err != nil {
		return nil, err
	}

	// String comparison.
	ls, lIsStr := l.(string)
	rs, rIsStr := r.(string)
	if lIsStr && rIsStr {
		switch x.Op {
		case "=":
			return ls == rs, nil
		case "!=":
			return ls != rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		case "+":
			return ls + rs, nil
		}
		return nil, fmt.Errorf("cql: op %q on strings", x.Op)
	}

	lf, err := toNum(l)
	if err != nil {
		return nil, err
	}
	rf, err := toNum(r)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("cql: division by zero")
		}
		return lf / rf, nil
	case "=":
		return lf == rf, nil
	case "!=":
		return lf != rf, nil
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	}
	return nil, fmt.Errorf("cql: unknown operator %q", x.Op)
}

// refLookup resolves an identifier against a refBinding.
func refLookup(id *Ident, b refBinding) (any, error) {
	if id.Qualifier != "" {
		row, ok := b[id.Qualifier]
		if !ok {
			return nil, fmt.Errorf("cql: unknown stream refBinding %q", id.Qualifier)
		}
		v, ok := row[id.Name]
		if !ok {
			return nil, fmt.Errorf("cql: stream %q has no column %q", id.Qualifier, id.Name)
		}
		return v, nil
	}
	var found any
	hits := 0
	for _, row := range b {
		if v, ok := row[id.Name]; ok {
			found = v
			hits++
		}
	}
	switch hits {
	case 0:
		return nil, fmt.Errorf("cql: unknown column %q", id.Name)
	case 1:
		return found, nil
	}
	return nil, fmt.Errorf("cql: ambiguous column %q (qualify it)", id.Name)
}

func refEvalBool(e Expr, b refBinding) (bool, error) {
	v, err := refEval(e, b)
	if err != nil {
		return false, err
	}
	bv, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("cql: predicate is %T, not boolean", v)
	}
	return bv, nil
}

// refEvalOverGroup evaluates a (possibly aggregate) expression over a group of
// bindings. Non-aggregate subexpressions are taken from the first refBinding.
func refEvalOverGroup(e Expr, group []refBinding) (any, error) {
	switch x := e.(type) {
	case *Call:
		if !aggregateFns[x.Fn] {
			return nil, fmt.Errorf("cql: unknown function %q", x.Fn)
		}
		if x.Fn == "COUNT" {
			if x.Star {
				return float64(len(group)), nil
			}
			n := 0
			for _, b := range group {
				if v, err := refEval(x.Args[0], b); err == nil && v != nil {
					n++
				}
			}
			return float64(n), nil
		}
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("cql: %s takes one argument", x.Fn)
		}
		var sum float64
		minV := math.Inf(1)
		maxV := math.Inf(-1)
		n := 0
		for _, b := range group {
			v, err := refEval(x.Args[0], b)
			if err != nil {
				return nil, err
			}
			f, err := toNum(v)
			if err != nil {
				return nil, err
			}
			sum += f
			if f < minV {
				minV = f
			}
			if f > maxV {
				maxV = f
			}
			n++
		}
		if n == 0 {
			return nil, nil
		}
		switch x.Fn {
		case "SUM":
			return sum, nil
		case "AVG":
			return sum / float64(n), nil
		case "MIN":
			return minV, nil
		case "MAX":
			return maxV, nil
		}
		return nil, fmt.Errorf("cql: unhandled aggregate %q", x.Fn)
	case *Binary:
		l, err := refEvalOverGroup(x.Left, group)
		if err != nil {
			return nil, err
		}
		r, err := refEvalOverGroup(x.Right, group)
		if err != nil {
			return nil, err
		}
		return refEvalBinary(&Binary{Op: x.Op, Left: refLitOf(l), Right: refLitOf(r)}, nil)
	case *Unary:
		v, err := refEvalOverGroup(x.X, group)
		if err != nil {
			return nil, err
		}
		return refEval(&Unary{Op: x.Op, X: refLitOf(v)}, nil)
	default:
		if len(group) == 0 {
			return nil, fmt.Errorf("cql: empty group")
		}
		return refEval(e, group[0])
	}
}

// refLitOf wraps an evaluated value back into a literal expression.
func refLitOf(v any) Expr {
	switch x := v.(type) {
	case float64:
		return &NumberLit{V: x}
	case string:
		return &StringLit{V: x}
	case bool:
		return &BoolLit{V: x}
	case int64:
		return &NumberLit{V: float64(x)}
	}
	return &NumberLit{V: 0}
}

// refEvalHaving evaluates a HAVING predicate over a group.
func refEvalHaving(e Expr, group []refBinding) (bool, error) {
	v, err := refEvalOverGroup(e, group)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("cql: HAVING is %T, not boolean", v)
	}
	return b, nil
}
