package cql

import (
	"fmt"
	"math"
)

// groupStage maintains a grouped query's result rows incrementally. Tuples
// (joined bindings) are folded into and retracted from per-group
// accumulators; flush turns the groups a step touched into row changes. A
// single [RANGE n SLIDE s] window keeps the accumulators per pane instead,
// so tuples are never retracted and a window is the merge of its panes.
type groupStage struct {
	keys   []scalar
	aggs   []aggSpec
	items  []groupExpr
	having groupExpr
	cols   []string
	colOf  []int // item -> column

	groups  map[string]*group
	touched []*group
	keyBuf  []byte
	keyVals []any

	// Pane mode: panes are paneWidth = gcd(n, s) wide, a window spans
	// rangeN/paneWidth of them and is only ever read at multiples of s.
	paneWidth int64
	rangeN    int64
	panes     []*pane // by end, oldest first
	merged    accSet  // scratch for flush
}

type aggSpec struct {
	fn   string // COUNT, SUM, AVG, MIN, MAX
	star bool
	arg  scalar
}

type group struct {
	key     string
	vals    []any // the GROUP BY values
	acc     accSet
	last    row // the group's row in the result relation, if present
	present bool
	touched bool
}

type pane struct {
	end    int64 // covers (end-paneWidth, end]
	groups map[string]*paneGroup
}

type paneGroup struct {
	g   *group
	acc accSet
}

// accSet is the state of every aggregate of the query over one set of
// tuples.
type accSet struct {
	n    int64 // tuples: COUNT(*)
	accs []acc
}

// acc is one aggregate's accumulator.
type acc struct {
	n   int64   // values folded in: COUNT(c), and AVG's divisor
	sum float64 // of the finite values
	// nan, posInf and negInf count the non-finite values apart, so that one
	// leaving the window gives the sum back instead of leaving it NaN.
	nan, posInf, negInf int64
	min, max            float64
	// vals counts each value a retractable MIN/MAX has seen, so that losing
	// the extreme is answered from the group's values, not from the window.
	vals map[float64]int64
}

// groupExpr is a select item or HAVING clause over one group.
type groupExpr func(g *group, a *accSet) (any, error)

func (p *plan) compileGroup(stmt *SelectStmt) (*groupStage, error) {
	gs := &groupStage{groups: map[string]*group{}}
	n := len(p.refs)
	keyOf := map[string]int{}
	for i, g := range stmt.GroupBy {
		k, err := p.compileScalar(g, n)
		if err != nil {
			return nil, err
		}
		gs.keys = append(gs.keys, k)
		if _, dup := keyOf[exprKey(g)]; !dup {
			keyOf[exprKey(g)] = i
		}
	}
	gs.keyVals = make([]any, len(gs.keys))
	aggOf := map[string]int{}
	var compile func(e Expr) (groupExpr, error)
	compile = func(e Expr) (groupExpr, error) {
		if i, ok := keyOf[exprKey(e)]; ok {
			return func(g *group, _ *accSet) (any, error) { return g.vals[i], nil }, nil
		}
		switch x := e.(type) {
		case *NumberLit:
			return groupConstant(x.V), nil
		case *StringLit:
			return groupConstant(x.V), nil
		case *BoolLit:
			return groupConstant(x.V), nil
		case *Ident:
			return nil, fmt.Errorf("cql: column %q must appear in GROUP BY or inside an aggregate", exprKey(x))
		case *Call:
			if !aggregateFns[x.Fn] {
				return nil, fmt.Errorf("cql: unknown function %q", x.Fn)
			}
			i, ok := aggOf[exprKey(x)]
			if !ok {
				spec := aggSpec{fn: x.Fn, star: x.Star && x.Fn == "COUNT"}
				if !spec.star {
					if x.Star || len(x.Args) != 1 {
						return nil, fmt.Errorf("cql: %s takes one argument", x.Fn)
					}
					arg, err := p.compileScalar(x.Args[0], n)
					if err != nil {
						return nil, err
					}
					spec.arg = arg
				}
				i = len(gs.aggs)
				aggOf[exprKey(x)] = i
				gs.aggs = append(gs.aggs, spec)
			}
			fn, star := x.Fn, gs.aggs[i].star
			return func(_ *group, a *accSet) (any, error) {
				if star {
					return float64(a.n), nil
				}
				return a.accs[i].result(fn), nil
			}, nil
		case *Unary:
			if x.Op != "-" && x.Op != "NOT" {
				return nil, fmt.Errorf("cql: unknown unary op %q", x.Op)
			}
			in, err := compile(x.X)
			if err != nil {
				return nil, err
			}
			return func(g *group, a *accSet) (any, error) {
				v, err := in(g, a)
				if err != nil {
					return nil, err
				}
				return unaryOp(x.Op, v)
			}, nil
		case *Binary:
			l, err := compile(x.Left)
			if err != nil {
				return nil, err
			}
			r, err := compile(x.Right)
			if err != nil {
				return nil, err
			}
			// Both sides are evaluated before AND/OR looks at the left one:
			// an aggregate expression that fails, fails the group.
			return func(g *group, a *accSet) (any, error) {
				lv, err := l(g, a)
				if err != nil {
					return nil, err
				}
				rv, err := r(g, a)
				if err != nil {
					return nil, err
				}
				if x.Op != "AND" && x.Op != "OR" {
					return binaryOp(x.Op, lv, rv)
				}
				res, done, err := logicLeft(x.Op, lv)
				if done || err != nil {
					return res, err
				}
				return logicRight(x.Op, rv)
			}, nil
		}
		return nil, fmt.Errorf("cql: cannot evaluate %T", e)
	}

	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("cql: SELECT * is not allowed with aggregation")
		}
		ge, err := compile(it.Expr)
		if err != nil {
			return nil, err
		}
		gs.items = append(gs.items, ge)
	}
	gs.cols, gs.colOf = outColumns(stmt.Items)
	if stmt.Having != nil {
		var err error
		if gs.having, err = compile(stmt.Having); err != nil {
			return nil, err
		}
	}
	if w := p.refs[0].win; len(p.refs) == 1 && w.Kind == WindowRange && w.Slide > 0 && w.N > 0 {
		gs.rangeN, gs.paneWidth = w.N, gcd(w.N, w.Slide)
		gs.merged.accs = make([]acc, len(gs.aggs))
	}
	return gs, nil
}

func groupConstant(v any) groupExpr {
	return func(*group, *accSet) (any, error) { return v, nil }
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lookup evaluates the GROUP BY expressions over env and leaves the group's
// key in keyBuf and its values in keyVals.
func (gs *groupStage) lookup(env []Row) error {
	gs.keyBuf = gs.keyBuf[:0]
	for i, k := range gs.keys {
		v, err := k(env)
		if err != nil {
			return err
		}
		gs.keyVals[i] = v
		gs.keyBuf = append(appendKeyPart(gs.keyBuf, v), 0)
	}
	return nil
}

// groupFor returns the group keyBuf names, creating it if new, and marks it
// touched.
func (gs *groupStage) groupFor() *group {
	g := gs.groups[string(gs.keyBuf)]
	if g == nil {
		g = &group{key: string(gs.keyBuf), vals: append([]any(nil), gs.keyVals...)}
		gs.groups[g.key] = g
	}
	gs.touch(g)
	return g
}

func (gs *groupStage) touch(g *group) {
	if !g.touched {
		g.touched = true
		gs.touched = append(gs.touched, g)
	}
}

func (gs *groupStage) newAccs(retractable bool) []acc {
	accs := make([]acc, len(gs.aggs))
	for i, s := range gs.aggs {
		accs[i].min, accs[i].max = math.Inf(1), math.Inf(-1)
		if retractable && (s.fn == "MIN" || s.fn == "MAX") {
			accs[i].vals = map[float64]int64{}
		}
	}
	return accs
}

// apply folds the binding env into its group (sign +1) or retracts it (-1).
func (gs *groupStage) apply(env []Row, sign int64) error {
	if err := gs.lookup(env); err != nil {
		return err
	}
	g := gs.groupFor()
	if g.acc.accs == nil {
		g.acc.accs = gs.newAccs(true)
	}
	return gs.fold(&g.acc, env, sign)
}

// paneFor returns the pane a tuple stamped ts falls in. A tuple that goes on
// to fail WHERE still opens its pane: the pane leaving is then a step, as the
// tuple leaving a retained window would be.
func (gs *groupStage) paneFor(ts int64) *pane {
	end := ceilTo(ts, gs.paneWidth)
	if n := len(gs.panes); n > 0 && gs.panes[n-1].end >= end {
		return gs.panes[n-1]
	}
	p := &pane{end: end, groups: map[string]*paneGroup{}}
	gs.panes = append(gs.panes, p)
	return p
}

// addToPane folds the binding env into its group's accumulators in p.
func (gs *groupStage) addToPane(p *pane, env []Row) error {
	if err := gs.lookup(env); err != nil {
		return err
	}
	pg := p.groups[string(gs.keyBuf)]
	if pg == nil {
		pg = &paneGroup{g: gs.groupFor(), acc: accSet{accs: gs.newAccs(false)}}
		p.groups[pg.g.key] = pg
	}
	gs.touch(pg.g)
	return gs.fold(&pg.acc, env, +1)
}

// paneExpiry is the instant the oldest pane leaves every window.
func (gs *groupStage) paneExpiry() (int64, bool) {
	if len(gs.panes) == 0 {
		return 0, false
	}
	return satAdd(gs.panes[0].end, gs.rangeN), true
}

// expirePanes drops the panes that have left every window by instant t.
func (gs *groupStage) expirePanes(t int64) {
	for len(gs.panes) > 0 && satAdd(gs.panes[0].end, gs.rangeN) <= t {
		for _, pg := range gs.panes[0].groups {
			gs.touch(pg.g)
		}
		gs.panes[0] = nil
		gs.panes = gs.panes[1:]
	}
}

func (gs *groupStage) fold(a *accSet, env []Row, sign int64) error {
	a.n += sign
	for i := range gs.aggs {
		s := &gs.aggs[i]
		if s.star {
			continue
		}
		v, err := s.arg(env)
		if s.fn == "COUNT" {
			// COUNT(c) counts the tuples where c has a value.
			if err == nil && v != nil {
				a.accs[i].n += sign
			}
			continue
		}
		if err != nil {
			return err
		}
		f, err := toNum(v)
		if err != nil {
			return err
		}
		a.accs[i].fold(f, sign)
	}
	return nil
}

func (a *acc) fold(f float64, sign int64) {
	a.n += sign
	switch {
	case math.IsNaN(f):
		a.nan += sign
		return // NaN compares false with everything: MIN and MAX never see it
	case math.IsInf(f, 1):
		a.posInf += sign
	case math.IsInf(f, -1):
		a.negInf += sign
	default:
		a.sum += float64(sign) * f
	}
	if a.vals == nil {
		a.min, a.max = math.Min(a.min, f), math.Max(a.max, f)
		return
	}
	if c := a.vals[f] + sign; c > 0 {
		a.vals[f] = c
		a.min, a.max = math.Min(a.min, f), math.Max(a.max, f)
		return
	}
	delete(a.vals, f)
	if f == a.min || f == a.max {
		a.min, a.max = math.Inf(1), math.Inf(-1)
		for v := range a.vals {
			a.min, a.max = math.Min(a.min, v), math.Max(a.max, v)
		}
	}
}

func (a *acc) merge(b *acc) {
	a.n += b.n
	a.sum += b.sum
	a.nan += b.nan
	a.posInf += b.posInf
	a.negInf += b.negInf
	a.min, a.max = math.Min(a.min, b.min), math.Max(a.max, b.max)
}

func (a *acc) result(fn string) any {
	switch fn {
	case "COUNT":
		return float64(a.n)
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	sum := a.sum
	switch {
	case a.nan > 0 || (a.posInf > 0 && a.negInf > 0):
		sum = math.NaN()
	case a.posInf > 0:
		sum = math.Inf(1)
	case a.negInf > 0:
		sum = math.Inf(-1)
	}
	if fn == "AVG" {
		return sum / float64(a.n)
	}
	return sum
}

// flush appends the row changes of the groups touched since the last flush
// to step: a group's old row leaves the result and its new row enters,
// unless they are the same row.
func (gs *groupStage) flush(step []change) ([]change, error) {
	for _, g := range gs.touched {
		g.touched = false
		a := &g.acc
		if gs.paneWidth > 0 {
			a = &gs.merged
			a.n = 0
			for i := range a.accs {
				a.accs[i] = acc{min: math.Inf(1), max: math.Inf(-1)}
			}
			for _, p := range gs.panes {
				if pg := p.groups[g.key]; pg != nil {
					a.n += pg.acc.n
					for i := range a.accs {
						a.accs[i].merge(&pg.acc.accs[i])
					}
				}
			}
		}
		var next row
		present := a.n > 0
		if present {
			next = row{cols: gs.cols, vals: make([]any, len(gs.cols))}
			for i, it := range gs.items {
				v, err := it(g, a)
				if err != nil {
					return step, err
				}
				next.vals[gs.colOf[i]] = v
			}
			if gs.having != nil {
				v, err := gs.having(g, a)
				if err != nil {
					return step, err
				}
				ok, isBool := v.(bool)
				if !isBool {
					return step, fmt.Errorf("cql: HAVING is %T, not boolean", v)
				}
				present = ok
			}
		} else {
			delete(gs.groups, g.key)
		}
		if present {
			gs.keyBuf = appendRowKey(gs.keyBuf[:0], next.cols, next.vals)
			next.key = string(gs.keyBuf)
			if g.present && g.last.key == next.key {
				continue
			}
		}
		if g.present {
			step = append(step, change{sign: -1, r: g.last})
		}
		if present {
			step = append(step, change{sign: +1, r: next})
		}
		g.last, g.present = next, present
	}
	gs.touched = gs.touched[:0]
	return step, nil
}
