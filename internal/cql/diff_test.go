package cql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// runReference drives the reference evaluator over tuples and then a final
// watermark, evaluating at every instant the relation can change: without
// SLIDE that is each instant some window drops a tuple (before any tuple
// stamped with it) and each tuple; with SLIDE it is each boundary b·s some
// tuple arrived or expired in (b·s-s, b·s], once every tuple up to b·s is in.
func runReference(stmt *SelectStmt, tuples []Tuple, final int64) ([]Output, error) {
	ref, err := newRefExecutor(stmt)
	if err != nil {
		return nil, err
	}
	var out []Output
	eval := func(ts int64) error {
		o, err := ref.AdvanceTo(ts)
		out = append(out, o...)
		return err
	}
	expiry := func(w *refWin, ts int64) (int64, bool) {
		switch w.ref.Window.Kind {
		case WindowNow:
			return ts + 1, true
		case WindowRange:
			return ts + w.ref.Window.N, w.ref.Window.N > 0
		}
		return 0, false
	}
	evalAll := func(instants map[int64]bool, upTo int64) error {
		var due []int64
		for e := range instants {
			if e <= upTo {
				due = append(due, e)
				delete(instants, e)
			}
		}
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, e := range due {
			if err := eval(e); err != nil {
				return err
			}
		}
		return nil
	}

	pending := map[int64]bool{} // instants still to evaluate
	for _, t := range tuples {
		// Everything before the tuple's instant is complete; without SLIDE
		// so are the expiries at its instant, which come first.
		upTo := t.Ts
		if ref.slide > 0 {
			upTo = t.Ts - 1
		}
		if err := evalAll(pending, upTo); err != nil {
			return out, err
		}
		if err := ref.insert(t.Stream, t.Ts, t.Row); err != nil {
			return out, err
		}
		for _, w := range ref.wins {
			if e, ok := expiry(w, t.Ts); ok && w.ref.Stream == t.Stream {
				if ref.slide > 0 {
					e = ceilTo(e, ref.slide)
				}
				pending[e] = true
			}
		}
		if ref.slide > 0 {
			pending[ceilTo(t.Ts, ref.slide)] = true
		} else if err := eval(t.Ts); err != nil {
			return out, err
		}
	}
	return out, evalAll(pending, final)
}

// runExecutor pushes tuples through the executor under test, calling
// AdvanceTo(w) before the i-th tuple for each w in advances[i], and the
// final watermark at the end.
func runExecutor(stmt *SelectStmt, tuples []Tuple, advances map[int][]int64, final int64) ([]Output, error) {
	ex, err := NewExecutor(stmt)
	if err != nil {
		return nil, err
	}
	var out []Output
	for i, t := range tuples {
		for _, w := range advances[i] {
			o, err := ex.AdvanceTo(w)
			out = append(out, o...)
			if err != nil {
				return out, err
			}
		}
		o, err := ex.Push(t.Stream, t.Ts, t.Row)
		out = append(out, o...)
		if err != nil {
			return out, err
		}
	}
	o, err := ex.AdvanceTo(final)
	return append(out, o...), err
}

func renderOutputs(outs []Output) []string {
	lines := make([]string, len(outs))
	for i, o := range outs {
		lines[i] = fmt.Sprintf("%d %d %s", o.Ts, o.Kind, rowKey(o.Row))
	}
	return lines
}

func firstDifference(a, b []string) string {
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("output %d: reference %q, executor %q (lengths %d, %d)", i, x, y, len(a), len(b))
		}
	}
	return ""
}

// Generators. Values are chosen so that both evaluators compute exactly the
// same floats whatever order they add in: numeric cells are multiples of 1/4
// of small magnitude, so sums are exact and retracting a value gives back
// what re-adding the rest would.

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

func genWindow(rng *rand.Rand, slide int64) string {
	switch rng.Intn(7) {
	case 0:
		return ""
	case 1:
		return "[UNBOUNDED]"
	case 2:
		return "[NOW]"
	case 3:
		return fmt.Sprintf("[ROWS %d]", pick(rng, 0, 1, 2, 3, 5))
	case 4:
		return fmt.Sprintf("[RANGE %d]", pick(rng, 0, 1, 2, 3, 7, 20))
	}
	if slide == 0 {
		return fmt.Sprintf("[RANGE %d]", pick(rng, 1, 4, 10))
	}
	return fmt.Sprintf("[RANGE %d SLIDE %d]", pick(rng, 1, 2, 4, 6, 10, 20), slide)
}

// genQuery also says whether the query forms a product of windows and
// whether it reads s2.
func genQuery(rng *rand.Rand) (query string, join, two bool) {
	slide := int64(0)
	if rng.Intn(2) == 0 {
		slide = pick[int64](rng, 1, 2, 3, 4, 5, 10)
	}
	where := ""
	if rng.Intn(2) == 0 {
		where = " WHERE " + pick(rng, "v > 0", "v >= w", "s = 'a'", "NOT b", "v + w < 3 AND b", "b OR v < 0", "s < 'b'", "-v <= w / 2")
	}
	aggs := []string{"COUNT(*) AS n", "COUNT(m) AS nm", "SUM(v) AS sv", "AVG(v) AS av", "MIN(v) AS lo", "MAX(w) AS hi",
		"SUM(v) + COUNT(*) AS t", "MAX(v) - MIN(v) AS spread", "SUM(v * 2) / 4 AS h"}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	having := ""
	if rng.Intn(3) == 0 {
		having = " HAVING " + pick(rng, "COUNT(*) >= 2", "SUM(v) > 0", "MIN(v) < MAX(v)", "AVG(w) <= 1 OR COUNT(*) = 1")
	}
	var sel string
	switch rng.Intn(6) {
	case 0: // select-project-filter
		proj := pick(rng, "k, v", "*", "v + w AS x, s", "k", "v * 2 AS d, b", "s, s + s AS ss, v", "*, v AS k")
		sel = fmt.Sprintf("SELECT %s FROM s1 %s%s", proj, genWindow(rng, slide), where)
	case 1: // two-stream join
		join, two = true, true
		on := pick(rng, "a.j = b.j", "a.j = b.j AND a.v >= b.w", "a.s = b.s OR a.j < b.j")
		proj := pick(rng, "a.k, a.v, b.w", "*", "a.v + b.v AS x", "a.s, b.s")
		jw := ""
		if rng.Intn(2) == 0 {
			jw = " WHERE " + pick(rng, "a.v > b.w", "a.b", "NOT (a.s = b.s)")
		}
		if rng.Intn(3) == 0 {
			sel = fmt.Sprintf("SELECT %s FROM s1 %s AS a, s2 %s AS b WHERE %s", proj, genWindow(rng, slide), genWindow(rng, slide), on)
		} else {
			sel = fmt.Sprintf("SELECT %s FROM s1 %s AS a JOIN s2 %s AS b ON %s%s", proj, genWindow(rng, slide), genWindow(rng, slide), on, jw)
		}
	case 2: // aggregate over a join, and a self-join
		join = true
		if two = rng.Intn(2) == 0; two {
			sel = fmt.Sprintf("SELECT a.k, COUNT(*) AS n, SUM(b.w) AS sw, MIN(a.v) AS lo FROM s1 %s AS a JOIN s2 %s AS b ON a.j = b.j GROUP BY a.k%s",
				genWindow(rng, slide), genWindow(rng, slide), strings.ReplaceAll(having, "(v)", "(a.v)"))
			sel = strings.ReplaceAll(sel, "(w)", "(b.w)")
		} else {
			sel = fmt.Sprintf("SELECT x.v, y.w FROM s1 %s AS x, s1 %s AS y WHERE x.j = y.j", genWindow(rng, slide), genWindow(rng, slide))
		}
	case 3: // aggregates with no GROUP BY
		sel = fmt.Sprintf("SELECT %s FROM s1 %s%s%s", strings.Join(aggs[:1+rng.Intn(3)], ", "), genWindow(rng, slide), where, having)
	default: // GROUP BY
		keys := pick(rng, "k", "k", "b", "k, b", "j + 1")
		sel = fmt.Sprintf("SELECT %s, %s FROM s1 %s%s GROUP BY %s%s", keys, strings.Join(aggs[:1+rng.Intn(4)], ", "),
			genWindow(rng, slide), where, keys, having)
	}
	return fmt.Sprintf("%s (%s)", pick(rng, "ISTREAM", "DSTREAM", "RSTREAM"), sel), join, two
}

func genNumber(rng *rand.Rand) any {
	q := float64(rng.Intn(33)-16) / 4
	if rng.Intn(3) == 0 {
		return int64(q)
	}
	return q
}

func genTuples(rng *rand.Rand, n int, streams []string) []Tuple {
	// Keys that collide unless typed and quoted: 1, 1.0, "1", and a string
	// that spells another column's cell.
	keys := []any{int64(1), float64(1), "1", "a", true, "a\";k=i:1", int64(2)}
	tuples := make([]Tuple, n)
	ts := int64(rng.Intn(5))
	for i := range tuples {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // equal timestamps are the common case
		case 4, 5, 6:
			ts++
		case 7:
			ts += 2
		case 8:
			ts += int64(3 + rng.Intn(6))
		case 9: // a gap that empties whole windows
			ts += int64(20 + rng.Intn(30))
		}
		row := Row{
			"k": pick(rng, keys...),
			"j": float64(rng.Intn(3)),
			"v": genNumber(rng),
			"w": genNumber(rng),
			"s": pick(rng, "a", "b", "a;k=s:\"b\""),
			"b": rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			row["m"] = pick[any](rng, 1.5, "x", false, int64(7))
		}
		if i > 0 && rng.Intn(6) == 0 { // an exact duplicate of the previous row
			row = tuples[i-1].Row
		}
		tuples[i] = Tuple{Stream: pick(rng, streams...), Ts: ts, Row: row}
	}
	return tuples
}

func genCase(seed int64) (query string, stmt *SelectStmt, tuples []Tuple, final int64) {
	rng := rand.New(rand.NewSource(seed))
	query, join, two := genQuery(rng)
	stmt, err := Parse(query)
	if err != nil {
		panic(fmt.Sprintf("seed %d: generated query %q does not parse: %v", seed, query, err))
	}
	n, streams := 30+rng.Intn(90), []string{"s1"}
	if join {
		n = 20 + rng.Intn(30) // the reference forms the whole product at every step
	}
	if two {
		streams = []string{"s1", "s1", "s2"}
	}
	tuples = genTuples(rng, n, streams)
	return query, stmt, tuples, tuples[n-1].Ts + int64(rng.Intn(40))
}

// The executor must equal the reference evaluator output for output —
// timestamps, kinds, rows and their order — on generated queries and inputs.
func TestExecutorMatchesReferenceEvaluator(t *testing.T) {
	cases := 1500
	if testing.Short() {
		cases = 200
	}
	for seed := int64(0); seed < int64(cases); seed++ {
		query, stmt, tuples, final := genCase(seed)
		want, err := runReference(stmt, tuples, final)
		if err != nil {
			t.Fatalf("seed %d: %s: reference: %v", seed, query, err)
		}
		got, err := runExecutor(stmt, tuples, nil, final)
		if err != nil {
			t.Fatalf("seed %d: %s: executor: %v", seed, query, err)
		}
		if d := firstDifference(renderOutputs(want), renderOutputs(got)); d != "" {
			t.Fatalf("seed %d: %s over %d tuples: %s", seed, query, len(tuples), d)
		}
	}
}

// The output is a function of the pushed tuples alone: watermarks between
// them — any non-decreasing instants below the next tuple's — only move
// outputs earlier in the call sequence. Concatenated, nothing changes.
func TestAdvanceToNeverChangesOutput(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		query, stmt, tuples, final := genCase(seed)
		want, err := runExecutor(stmt, tuples, nil, final)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, query, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for round := 0; round < 3; round++ {
			advances := map[int][]int64{}
			wm := tuples[0].Ts - 3
			for i, tu := range tuples {
				for rng.Intn(3) == 0 && wm < tu.Ts-1 {
					wm += 1 + rng.Int63n(tu.Ts-1-wm)
					advances[i] = append(advances[i], wm)
					if rng.Intn(4) == 0 { // and a stale one, which must be a no-op
						advances[i] = append(advances[i], wm-rng.Int63n(5))
					}
				}
			}
			got, err := runExecutor(stmt, tuples, advances, final)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, query, err)
			}
			if d := firstDifference(renderOutputs(want), renderOutputs(got)); d != "" {
				t.Fatalf("seed %d round %d: %s: with watermarks %v: %s", seed, round, query, advances, d)
			}
		}
	}
}
