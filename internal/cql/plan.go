package cql

import (
	"fmt"
	"sort"
)

// plan is a statement compiled once by NewExecutor: column references
// resolved to FROM-ref slots, the output columns and the aggregate list
// fixed, and the shape decisions (grouped, slide, what each window must
// retain) taken here instead of on every push.
type plan struct {
	emit  EmitKind
	refs  []*ref
	where scalar
	// slide > 0 gates evaluation to the instants b·slide.
	slide int64

	// Projection of a non-grouped query. cols is sorted by name (the order a
	// Row marshals in); item i writes column itemCol[i], so a later item of
	// the same name overwrites an earlier one as it would in a map. star
	// plans derive their columns from each tuple instead.
	items   []scalar
	itemCol []int
	cols    []string
	star    []SelectItem

	// group is the aggregation stage; nil for select-project-filter-join.
	group *groupStage
}

// paned returns the group stage if it keeps per-pane partials, in which case
// the query's one window is the stage's panes and not a queue of tuples.
func (p *plan) paned() *groupStage {
	if p.group != nil && p.group.paneWidth > 0 {
		return p.group
	}
	return nil
}

// ref is one FROM entry with its live window.
type ref struct {
	stream string
	name   string
	win    WindowSpec
	on     scalar // JOIN ON, over refs up to and including this one
	// retain is false when nothing downstream can use the window's contents:
	// no other ref probes it and no output depends on a tuple leaving it.
	retain bool
	q      []tuple // live tuples, oldest first, from q[head]
	head   int
}

type tuple struct {
	ts  int64
	row Row
}

// compile validates stmt and builds its plan.
func compile(stmt *SelectStmt) (*plan, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("cql: query has no FROM clause")
	}
	p := &plan{emit: stmt.Emit}
	names := map[string]bool{}
	for _, fr := range stmt.From {
		n := fr.name()
		if names[n] {
			return nil, fmt.Errorf("cql: duplicate stream binding %q (use AS aliases)", n)
		}
		names[n] = true
		p.refs = append(p.refs, &ref{stream: fr.Stream, name: n, win: fr.Window})
		if fr.Window.Slide > 0 {
			// Evaluation is gated on one shared slide; silently keeping only
			// the last ref's value would make the other windows' SLIDE
			// clauses dead letters.
			if p.slide > 0 && p.slide != fr.Window.Slide {
				return nil, fmt.Errorf("cql: FROM refs declare different SLIDE values (%d vs %d); all windowed refs must share one slide", p.slide, fr.Window.Slide)
			}
			p.slide = fr.Window.Slide
		}
	}
	var err error
	for i, fr := range stmt.From {
		if fr.JoinOn == nil {
			continue
		}
		if p.refs[i].on, err = p.compileScalar(fr.JoinOn, i+1); err != nil {
			return nil, err
		}
	}
	if stmt.Where != nil {
		if p.where, err = p.compileScalar(stmt.Where, len(p.refs)); err != nil {
			return nil, err
		}
	}

	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if !it.Star && isAggregate(it.Expr) {
			grouped = true
		}
	}
	if grouped {
		if p.group, err = p.compileGroup(stmt); err != nil {
			return nil, err
		}
	} else if err = p.compileProjection(stmt.Items); err != nil {
		return nil, err
	}

	for _, r := range p.refs {
		switch {
		case p.paned() != nil, r.win.Kind == WindowUnbounded && len(p.refs) == 1:
			// Panes and accumulators hold all that is needed of the tuples.
		case len(p.refs) > 1, grouped, p.emit != EmitIStream, p.slide > 0, r.win.Kind == WindowRows:
			r.retain = true
		}
		// What is left is ISTREAM of a filter-project over a time window:
		// a tuple leaving it is a step of its own and inserts nothing.
	}
	return p, nil
}

// outColumns fixes the output columns of items: the distinct names, sorted,
// and for each item the column it writes.
func outColumns(items []SelectItem) (cols []string, itemCol []int) {
	seen := map[string]bool{}
	for i, it := range items {
		if n := it.outName(i); !seen[n] {
			seen[n] = true
			cols = append(cols, n)
		}
	}
	sort.Strings(cols)
	for i, it := range items {
		itemCol = append(itemCol, sort.SearchStrings(cols, it.outName(i)))
	}
	return cols, itemCol
}

func (p *plan) compileProjection(items []SelectItem) error {
	for _, it := range items {
		if it.Star {
			p.star = items
		}
	}
	for _, it := range items {
		var s scalar
		if !it.Star {
			var err error
			if s, err = p.compileScalar(it.Expr, len(p.refs)); err != nil {
				return err
			}
		}
		p.items = append(p.items, s)
	}
	if p.star == nil {
		p.cols, p.itemCol = outColumns(items)
	}
	return nil
}

// project builds the output row of one binding.
func (p *plan) project(env []Row) (row, error) {
	if p.star != nil {
		return p.projectStar(env)
	}
	vals := make([]any, len(p.cols))
	for i, it := range p.items {
		v, err := it(env)
		if err != nil {
			return row{}, err
		}
		vals[p.itemCol[i]] = v
	}
	return row{cols: p.cols, vals: vals}, nil
}

// projectStar handles SELECT *, whose columns are whatever the bound tuples
// carry: one ref contributes its columns bare, several contribute them as
// ref.column.
func (p *plan) projectStar(env []Row) (row, error) {
	m := Row{}
	for i, it := range p.star {
		if it.Star {
			for j, r := range p.refs {
				for k, v := range env[j] {
					if len(p.refs) > 1 {
						k = r.name + "." + k
					}
					m[k] = v
				}
			}
			continue
		}
		v, err := p.items[i](env)
		if err != nil {
			return row{}, err
		}
		m[it.outName(i)] = v
	}
	r := row{cols: make([]string, 0, len(m)), vals: make([]any, 0, len(m))}
	for k := range m {
		r.cols = append(r.cols, k)
	}
	sort.Strings(r.cols)
	for _, k := range r.cols {
		r.vals = append(r.vals, m[k])
	}
	return r, nil
}
