package cql

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func push(t *testing.T, ex *Executor, stream string, ts int64, row Row) []Output {
	t.Helper()
	out, err := ex.Push(stream, ts, row)
	if err != nil {
		t.Fatalf("push %s@%d: %v", stream, ts, err)
	}
	return out
}

func TestParseBasics(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM trades",
		"SELECT price FROM trades [ROWS 10]",
		"SELECT symbol, AVG(price) AS avgp FROM trades [RANGE 60] GROUP BY symbol",
		"ISTREAM (SELECT * FROM trades [NOW] WHERE price > 100)",
		"DSTREAM (SELECT * FROM trades [RANGE 5])",
		"RSTREAM (SELECT t.price FROM trades [ROWS 1] AS t)",
		"SELECT a.x, b.y FROM s1 [RANGE 10] AS a, s2 [RANGE 10] AS b WHERE a.k = b.k",
		"SELECT a.x FROM s1 [RANGE 10] AS a JOIN s2 [RANGE 10] AS b ON a.k = b.k",
		"SELECT COUNT(*) AS n FROM s [RANGE 100 SLIDE 10]",
		"SELECT x FROM s WHERE NOT (x > 3 AND x < 5) OR x = 7;",
	} {
		if _, err := Parse(q); err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"SELECT",
		"SELECT FROM s",
		"SELECT * FROM",
		"SELECT * FROM s [RANGE]",
		"SELECT * FROM s [BOGUS 5]",
		"ISTREAM SELECT * FROM s",        // missing parens
		"SELECT * FROM s WHERE",          // dangling
		"SELECT * FROM s extra nonsense", // trailing
		"SELECT 'unterminated FROM s",
	} {
		if _, err := Parse(q); err == nil {
			t.Fatalf("parse %q: expected error", q)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	// Non-aggregate column not in GROUP BY.
	stmt, err := Parse("SELECT symbol, price, COUNT(*) FROM s GROUP BY symbol")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExecutor(stmt); err == nil {
		t.Fatal("ungrouped column accepted")
	}
	// Duplicate bindings.
	stmt2, _ := Parse("SELECT * FROM s, s")
	if _, err := NewExecutor(stmt2); err == nil {
		t.Fatal("duplicate binding accepted")
	}
	// Star with aggregation.
	stmt3, _ := Parse("SELECT * FROM s GROUP BY x")
	if _, err := NewExecutor(stmt3); err == nil {
		t.Fatal("star with aggregation accepted")
	}
}

func TestSelectionProjectionIStream(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT symbol, price FROM trades WHERE price > 100)")
	out := push(t, ex, "trades", 1, Row{"symbol": "A", "price": 150.0})
	if len(out) != 1 || out[0].Row["symbol"] != "A" || out[0].Row["price"] != 150.0 {
		t.Fatalf("unexpected output: %v", out)
	}
	out = push(t, ex, "trades", 2, Row{"symbol": "B", "price": 50.0})
	if len(out) != 0 {
		t.Fatalf("filtered tuple emitted: %v", out)
	}
	// ISTREAM over an unbounded window emits each qualifying tuple once.
	out = push(t, ex, "trades", 3, Row{"symbol": "C", "price": 200.0})
	if len(out) != 1 || out[0].Row["symbol"] != "C" {
		t.Fatalf("want one new insertion, got %v", out)
	}
}

func TestRowsWindow(t *testing.T) {
	// ROWS 2 keeps the last two tuples; RSTREAM shows the relation each
	// instant.
	ex := MustPrepare("RSTREAM (SELECT price FROM trades [ROWS 2])")
	push(t, ex, "trades", 1, Row{"price": 1.0})
	push(t, ex, "trades", 2, Row{"price": 2.0})
	out := push(t, ex, "trades", 3, Row{"price": 3.0})
	if len(out) != 2 {
		t.Fatalf("ROWS 2 relation should hold 2 tuples, got %d", len(out))
	}
	prices := map[float64]bool{}
	for _, o := range out {
		prices[o.Row["price"].(float64)] = true
	}
	if !prices[2.0] || !prices[3.0] || prices[1.0] {
		t.Fatalf("wrong window contents: %v", out)
	}
}

func TestRangeWindowAndDStream(t *testing.T) {
	ex := MustPrepare("DSTREAM (SELECT price FROM trades [RANGE 10])")
	push(t, ex, "trades", 0, Row{"price": 1.0})
	push(t, ex, "trades", 5, Row{"price": 2.0})
	// At ts=11 the first tuple (ts=0) has left the 10-unit window.
	out, err := ex.AdvanceTo(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Kind != Delete || out[0].Row["price"] != 1.0 {
		t.Fatalf("want deletion of price=1, got %v", out)
	}
}

func TestNowWindow(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT price FROM trades [NOW])")
	push(t, ex, "trades", 1, Row{"price": 1.0})
	out := push(t, ex, "trades", 2, Row{"price": 2.0})
	if len(out) != 1 || out[0].Row["price"] != 2.0 {
		t.Fatalf("NOW window should hold only the current instant: %v", out)
	}
}

func TestGroupedAggregation(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT symbol, AVG(price) AS avgp, COUNT(*) AS n FROM trades [ROWS 100] GROUP BY symbol)")
	push(t, ex, "trades", 1, Row{"symbol": "A", "price": 10.0})
	push(t, ex, "trades", 2, Row{"symbol": "A", "price": 20.0})
	out := push(t, ex, "trades", 3, Row{"symbol": "B", "price": 5.0})
	if len(out) != 2 {
		t.Fatalf("want 2 groups, got %d: %v", len(out), out)
	}
	byGroup := map[string]Row{}
	for _, o := range out {
		byGroup[o.Row["symbol"].(string)] = o.Row
	}
	if byGroup["A"]["avgp"] != 15.0 || byGroup["A"]["n"] != 2.0 {
		t.Fatalf("group A wrong: %v", byGroup["A"])
	}
	if byGroup["B"]["avgp"] != 5.0 {
		t.Fatalf("group B wrong: %v", byGroup["B"])
	}
}

func TestAggregatesMinMaxSum(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT MIN(v) AS lo, MAX(v) AS hi, SUM(v) AS s FROM nums [UNBOUNDED] GROUP BY k)")
	push(t, ex, "nums", 1, Row{"k": "x", "v": 3.0})
	push(t, ex, "nums", 2, Row{"k": "x", "v": -1.0})
	out := push(t, ex, "nums", 3, Row{"k": "x", "v": 10.0})
	if len(out) != 1 {
		t.Fatalf("want 1 group row, got %v", out)
	}
	r := out[0].Row
	if r["lo"] != -1.0 || r["hi"] != 10.0 || r["s"] != 12.0 {
		t.Fatalf("aggregates wrong: %v", r)
	}
}

func TestHaving(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT k, COUNT(*) AS n FROM s [UNBOUNDED] GROUP BY k HAVING COUNT(*) >= 2)")
	push(t, ex, "s", 1, Row{"k": "a"})
	out := push(t, ex, "s", 2, Row{"k": "b"})
	if len(out) != 0 {
		t.Fatalf("no group reaches HAVING yet: %v", out)
	}
	out = push(t, ex, "s", 3, Row{"k": "a"})
	if len(out) != 1 || out[0].Row["k"] != "a" {
		t.Fatalf("group a should pass HAVING: %v", out)
	}
}

func TestTwoStreamJoin(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT o.id, p.amount FROM orders [RANGE 100] AS o JOIN payments [RANGE 100] AS p ON o.id = p.order_id)")
	push(t, ex, "orders", 1, Row{"id": 1.0})
	push(t, ex, "orders", 2, Row{"id": 2.0})
	out := push(t, ex, "payments", 3, Row{"order_id": 2.0, "amount": 99.0})
	if len(out) != 1 {
		t.Fatalf("want 1 join result, got %v", out)
	}
	if out[0].Row["id"] != 2.0 || out[0].Row["amount"] != 99.0 {
		t.Fatalf("join row wrong: %v", out[0].Row)
	}
	// Non-matching payment joins nothing.
	out = push(t, ex, "payments", 4, Row{"order_id": 7.0, "amount": 1.0})
	if len(out) != 0 {
		t.Fatalf("unmatched join emitted: %v", out)
	}
}

func TestJoinWindowExpiry(t *testing.T) {
	// Order expires from its window before the payment arrives.
	ex := MustPrepare("ISTREAM (SELECT o.id, p.amount FROM orders [RANGE 10] AS o JOIN payments [RANGE 10] AS p ON o.id = p.order_id)")
	push(t, ex, "orders", 0, Row{"id": 1.0})
	out := push(t, ex, "payments", 50, Row{"order_id": 1.0, "amount": 5.0})
	if len(out) != 0 {
		t.Fatalf("join across expired window: %v", out)
	}
}

func TestSlideEvaluatesAtBoundaries(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT COUNT(*) AS n FROM s [RANGE 100 SLIDE 10] GROUP BY k)")
	// Pushes within one slide produce no output until a later tuple shows the
	// boundary complete.
	if o := push(t, ex, "s", 101, Row{"k": "a"}); len(o) != 0 {
		t.Fatalf("evaluated before the boundary: %v", o)
	}
	o2 := push(t, ex, "s", 103, Row{"k": "a"})
	if len(o2) != 0 {
		t.Fatalf("mid-slide evaluation: %v", o2)
	}
	// The tuple at 112 completes boundary 110, which holds the two before it
	// and not the tuple itself.
	o3 := push(t, ex, "s", 112, Row{"k": "a"})
	if len(o3) != 1 || o3[0].Row["n"] != 2.0 || o3[0].Ts != 110 {
		t.Fatalf("slide boundary evaluation wrong: %v", o3)
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT a + b * 2 AS v FROM s [NOW])")
	out := push(t, ex, "s", 1, Row{"a": 1.0, "b": 3.0})
	if out[0].Row["v"] != 7.0 {
		t.Fatalf("precedence wrong: %v", out[0].Row["v"])
	}
	ex2 := MustPrepare("RSTREAM (SELECT (a + b) * 2 AS v FROM s [NOW])")
	out2 := push(t, ex2, "s", 1, Row{"a": 1.0, "b": 3.0})
	if out2[0].Row["v"] != 8.0 {
		t.Fatalf("parens wrong: %v", out2[0].Row["v"])
	}
}

func TestStringComparisonAndBooleans(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT name FROM s WHERE name = 'alice' AND active = TRUE)")
	out := push(t, ex, "s", 1, Row{"name": "alice", "active": true})
	if len(out) != 1 {
		t.Fatalf("string/bool predicate failed: %v", out)
	}
	out = push(t, ex, "s", 2, Row{"name": "bob", "active": true})
	if len(out) != 0 {
		t.Fatal("wrong name passed filter")
	}
}

func TestIntCoercion(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT v FROM s WHERE v > 5)")
	out := push(t, ex, "s", 1, Row{"v": int64(10)})
	if len(out) != 1 {
		t.Fatalf("int64 coercion failed: %v", out)
	}
}

func TestUnknownStreamRejected(t *testing.T) {
	ex := MustPrepare("SELECT * FROM s")
	if _, err := ex.Push("other", 1, Row{}); err == nil {
		t.Fatal("push to unknown stream accepted")
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT x FROM a [NOW] AS a1, b [NOW] AS b1)")
	if _, err := ex.Push("a", 1, Row{"x": 1.0}); err != nil {
		t.Fatal(err)
	}
	// Now both windows hold rows with column x at the same instant; the
	// unqualified reference is ambiguous.
	ex2 := MustPrepare("ISTREAM (SELECT x FROM a [UNBOUNDED] AS a1, b [UNBOUNDED] AS b1)")
	push2, _ := ex2.Push("a", 1, Row{"x": 1.0})
	_ = push2
	if _, err := ex2.Push("b", 2, Row{"x": 2.0}); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestUnaryOperators(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT v FROM s WHERE NOT (v > 5) AND -v < 0)")
	out := push(t, ex, "s", 1, Row{"v": 3.0})
	if len(out) != 1 {
		t.Fatalf("unary predicate failed: %v", out)
	}
	out = push(t, ex, "s", 2, Row{"v": 7.0})
	if len(out) != 0 {
		t.Fatal("NOT inverted wrongly")
	}
}

func TestStringConcatAndOrdering(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT a + b AS ab FROM s [NOW] WHERE a < b)")
	out := push(t, ex, "s", 1, Row{"a": "x", "b": "y"})
	if len(out) != 1 || out[0].Row["ab"] != "xy" {
		t.Fatalf("string concat: %v", out)
	}
}

func TestDivisionByZeroReported(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT a / b AS q FROM s [NOW])")
	if _, err := ex.Push("s", 1, Row{"a": 1.0, "b": 0.0}); err == nil {
		t.Fatal("division by zero not reported")
	}
}

func TestTypeErrorsReported(t *testing.T) {
	// AND over non-boolean.
	ex := MustPrepare("ISTREAM (SELECT v FROM s WHERE v AND TRUE)")
	if _, err := ex.Push("s", 1, Row{"v": 1.0}); err == nil {
		t.Fatal("AND over number accepted")
	}
	// Arithmetic over string.
	ex2 := MustPrepare("RSTREAM (SELECT v * 2 AS d FROM s [NOW])")
	if _, err := ex2.Push("s", 1, Row{"v": "oops"}); err == nil {
		t.Fatal("string arithmetic accepted")
	}
	// Unknown column.
	ex3 := MustPrepare("ISTREAM (SELECT missing FROM s)")
	if _, err := ex3.Push("s", 1, Row{"v": 1.0}); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestStarProjectionWithJoinQualifies(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT * FROM a [NOW] AS l, b [NOW] AS r)")
	push(t, ex, "a", 1, Row{"x": 1.0})
	out := push(t, ex, "b", 1, Row{"y": 2.0})
	if len(out) != 1 {
		t.Fatalf("join star: %v", out)
	}
	row := out[0].Row
	if row["l.x"] != 1.0 || row["r.y"] != 2.0 {
		t.Fatalf("star with join should qualify columns: %v", row)
	}
}

func TestHavingOverAverageExpression(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT k, AVG(v) + 1 AS avp FROM s [UNBOUNDED] GROUP BY k HAVING AVG(v) > 10)")
	push(t, ex, "s", 1, Row{"k": "a", "v": 5.0})
	out := push(t, ex, "s", 2, Row{"k": "a", "v": 25.0})
	if len(out) != 1 || out[0].Row["avp"] != 16.0 {
		t.Fatalf("aggregate expression: %v", out)
	}
}

func TestEmitKindString(t *testing.T) {
	if EmitIStream.String() != "ISTREAM" || EmitDStream.String() != "DSTREAM" || EmitRStream.String() != "RSTREAM" {
		t.Fatal("EmitKind strings wrong")
	}
}

func TestPrepareReportsParseAndSemanticErrors(t *testing.T) {
	if _, err := Prepare("SELEC nonsense"); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Prepare("SELECT a, COUNT(*) FROM s GROUP BY b"); err == nil {
		t.Fatal("semantic error not surfaced")
	}
}

func TestCountColumnSkipsAbsent(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT k, COUNT(v) AS n FROM s [UNBOUNDED] GROUP BY k)")
	push(t, ex, "s", 1, Row{"k": "a", "v": 1.0})
	out := push(t, ex, "s", 2, Row{"k": "a"}) // v missing
	if len(out) != 1 || out[0].Row["n"] != 1.0 {
		t.Fatalf("COUNT(col) should skip rows without the column: %v", out)
	}
}

func TestExprKeyCanonicalisation(t *testing.T) {
	stmt, err := Parse("SELECT a.x + 1, COUNT(*), NOT flag, 'lit', TRUE FROM s GROUP BY a.x + 1, NOT flag, 'lit', TRUE")
	if err != nil {
		t.Fatal(err)
	}
	// Building the executor exercises exprKey on every select item; the
	// grouped validation must accept the syntactically identical items.
	if _, err := NewExecutor(stmt); err != nil {
		t.Fatalf("exprKey canonicalisation failed: %v", err)
	}
}

// TestRowsWindowQueryMatchesDirectEvaluation is the property test promised in
// DESIGN.md: a random filter query over a ROWS window must match a direct
// hand evaluation of CQL's reference semantics (window contents at each
// instant, filtered, RSTREAM'd).
func TestRowsWindowQueryMatchesDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(10)
		threshold := float64(rng.Intn(100))
		q := fmt.Sprintf("RSTREAM (SELECT v FROM s [ROWS %d] WHERE v > %g)", rows, threshold)
		ex := MustPrepare(q)

		var windowBuf []float64
		for i := 0; i < 200; i++ {
			v := float64(rng.Intn(100))
			out, err := ex.Push("s", int64(i), Row{"v": v})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			// Reference: maintain the ROWS window by hand, filter, compare
			// as multisets.
			windowBuf = append(windowBuf, v)
			if len(windowBuf) > rows {
				windowBuf = windowBuf[len(windowBuf)-rows:]
			}
			var want []float64
			for _, w := range windowBuf {
				if w > threshold {
					want = append(want, w)
				}
			}
			var got []float64
			for _, o := range out {
				got = append(got, o.Row["v"].(float64))
			}
			sort.Float64s(want)
			sort.Float64s(got)
			if len(want) != len(got) {
				t.Fatalf("trial %d step %d (%s): want %v got %v", trial, i, q, want, got)
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("trial %d step %d: want %v got %v", trial, i, want, got)
				}
			}
		}
	}
}

// Regression: Push used to initialize lastSlide to 0, so every tuple whose
// ts/slide == 0 returned early and the entire first slide period was
// silently suppressed.
func TestFirstSlidePeriodEmits(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT COUNT(*) AS n FROM s [RANGE 100 SLIDE 10] GROUP BY k)")
	if o := push(t, ex, "s", 1, Row{"k": "a"}); len(o) != 0 {
		t.Fatalf("evaluated before the first boundary: %v", o)
	}
	if o := push(t, ex, "s", 3, Row{"k": "a"}); len(o) != 0 {
		t.Fatalf("mid-slide evaluation in first period: %v", o)
	}
	// Boundary 10 is the first period's: it must report both its tuples.
	o3 := push(t, ex, "s", 12, Row{"k": "a"})
	if len(o3) != 1 || o3[0].Row["n"] != 2.0 || o3[0].Ts != 10 {
		t.Fatalf("first slide period suppressed: %v", o3)
	}
	// A watermark completes boundary 20 with no later tuple.
	o4, err := ex.AdvanceTo(20)
	if err != nil || len(o4) != 1 || o4[0].Row["n"] != 3.0 || o4[0].Ts != 20 {
		t.Fatalf("boundary closed by watermark: %v %v", o4, err)
	}
}

// Regression: NewExecutor used to overwrite ex.slide with each windowed FROM
// ref, silently keeping only the last ref's SLIDE.
func TestMismatchedSlidesRejected(t *testing.T) {
	_, err := Prepare("ISTREAM (SELECT a.x FROM s1 [RANGE 100 SLIDE 10] AS a JOIN s2 [RANGE 100 SLIDE 20] AS b ON a.k = b.k)")
	if err == nil {
		t.Fatal("mismatched SLIDE values accepted")
	}
	// Matching slides across refs stay legal.
	if _, err := Prepare("ISTREAM (SELECT a.x FROM s1 [RANGE 100 SLIDE 10] AS a JOIN s2 [RANGE 50 SLIDE 10] AS b ON a.k = b.k)"); err != nil {
		t.Fatalf("matching slides rejected: %v", err)
	}
	// A single windowed ref plus an unwindowed one is fine too.
	if _, err := Prepare("ISTREAM (SELECT a.x FROM s1 [RANGE 100 SLIDE 10] AS a, s2 [ROWS 5] AS b)"); err != nil {
		t.Fatalf("single slide rejected: %v", err)
	}
}

// Regression: GROUP BY keys were built with %v, so int64(1), float64(1) and
// "1" merged into one group.
func TestGroupKeysAreTypeTagged(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT k, COUNT(*) AS n FROM s [UNBOUNDED] GROUP BY k)")
	push(t, ex, "s", 1, Row{"k": int64(1)})
	push(t, ex, "s", 2, Row{"k": float64(1)})
	out := push(t, ex, "s", 3, Row{"k": "1"})
	if len(out) != 3 {
		t.Fatalf("distinct-typed keys merged: want 3 groups, got %d (%v)", len(out), out)
	}
	for _, o := range out {
		if o.Row["n"] != 1.0 {
			t.Fatalf("group counts corrupted by key collision: %v", out)
		}
	}
}

// Regression: rowKey used %v too, so the DStream bag diff treated
// {v: int64(1)} and {v: float64(1)} as the same row and swallowed the
// expiration delta.
func TestRowKeyTypeCollisionInBagDiff(t *testing.T) {
	ex := MustPrepare("DSTREAM (SELECT v FROM s [NOW])")
	push(t, ex, "s", 1, Row{"v": int64(1)})
	out := push(t, ex, "s", 2, Row{"v": float64(1)})
	if len(out) != 1 || out[0].Kind != Delete {
		t.Fatalf("expired row delete swallowed by key collision: %v", out)
	}
	if v, ok := out[0].Row["v"].(int64); !ok || v != 1 {
		t.Fatalf("deleted row carries wrong value: %v", out[0].Row)
	}
	// Strings with embedded separators cannot forge composite keys either.
	if keyPart("a\";b=i:1") == keyPart("a") || keyPart("1") == keyPart(int64(1)) {
		t.Fatal("keyPart collisions")
	}
}

// A tuple leaves its window at its own expiry instant, whatever call brings
// time there: a watermark far ahead, or the next tuple.
func TestExpiryCarriesItsOwnInstant(t *testing.T) {
	for _, byTuple := range []bool{false, true} {
		ex := MustPrepare("DSTREAM (SELECT price FROM trades [RANGE 10])")
		push(t, ex, "trades", 0, Row{"price": 1.0})
		push(t, ex, "trades", 5, Row{"price": 2.0})
		var out []Output
		if byTuple {
			out = push(t, ex, "trades", 100, Row{"price": 3.0})
		} else {
			var err error
			if out, err = ex.AdvanceTo(100); err != nil {
				t.Fatal(err)
			}
		}
		if len(out) != 2 || out[0].Ts != 10 || out[0].Row["price"] != 1.0 || out[1].Ts != 15 || out[1].Row["price"] != 2.0 {
			t.Fatalf("by tuple %v: want deletions at 10 and 15, got %v", byTuple, out)
		}
	}
}

// A tuple stamped before the executor's clock is treated as arriving now.
func TestLateTupleArrivesNow(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT v FROM s [NOW])")
	push(t, ex, "s", 10, Row{"v": 1.0})
	if out := push(t, ex, "s", 7, Row{"v": 2.0}); len(out) != 1 || out[0].Ts != 10 {
		t.Fatalf("late tuple: %v", out)
	}
	// With SLIDE, one that arrives for a boundary a watermark already
	// completed joins the next boundary.
	sl := MustPrepare("ISTREAM (SELECT COUNT(*) AS n FROM s [RANGE 10 SLIDE 10])")
	push(t, sl, "s", 4, Row{})
	if out, _ := sl.AdvanceTo(10); len(out) != 1 || out[0].Row["n"] != 1.0 || out[0].Ts != 10 {
		t.Fatalf("boundary 10: %v", out)
	}
	push(t, sl, "s", 9, Row{})
	if out, _ := sl.AdvanceTo(20); len(out) != 0 {
		// Stamped 10, the tuple lies outside (10, 20]: the count of boundary
		// 10 is not revised, and boundary 20 is empty.
		t.Fatalf("late tuple revised an evaluated boundary: %v", out)
	}
}

// Retraction gives an aggregate back what the leaving tuple put in, also when
// that was not finite, and MIN/MAX find the next extreme among what is left.
func TestAggregatesRetract(t *testing.T) {
	ex := MustPrepare("RSTREAM (SELECT SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM s [ROWS 2])")
	inf := math.Inf(1)
	var last Row
	for i, v := range []float64{3, inf, 1, 7, 7, 2} {
		out := push(t, ex, "s", int64(i), Row{"v": v})
		if len(out) != 1 {
			t.Fatalf("push %d: %v", i, out)
		}
		last = out[0].Row
		if i == 1 && last["s"] != inf {
			t.Fatalf("sum with +Inf in the window: %v", last)
		}
		if i == 3 && (last["s"] != 8.0 || last["lo"] != 1.0 || last["hi"] != 7.0) {
			t.Fatalf("after +Inf left: %v", last)
		}
		if i == 4 && (last["lo"] != 7.0 || last["hi"] != 7.0) {
			t.Fatalf("duplicates of the extreme: %v", last)
		}
	}
	if last["s"] != 9.0 || last["lo"] != 2.0 || last["hi"] != 7.0 || last["n"] != 2.0 {
		t.Fatalf("final window {7, 2}: %v", last)
	}
}

// The planner rejects what the evaluator used to meet only at the first
// tuple, or not at all.
func TestPlannerRejections(t *testing.T) {
	for _, q := range []string{
		"SELECT COUNT() FROM s",                   // used to index the missing argument
		"SELECT SUM(v, w) FROM s",                 //
		"SELECT SUM(COUNT(*)) FROM s",             // aggregate of an aggregate
		"SELECT v FROM s WHERE SUM(v) > 1",        // aggregate in a scalar context
		"SELECT f(v) FROM s",                      // unknown function
		"SELECT v + COUNT(*) FROM s GROUP BY k",   // v was read from an arbitrary tuple of the group
		"SELECT k FROM s GROUP BY k HAVING v > 1", // likewise
		"SELECT v FROM s HAVING v > 1",            // HAVING without grouping was silently ignored
		"SELECT v FROM s WHERE " + strings.Repeat("(", 5000) + "v" + strings.Repeat(")", 5000),
	} {
		if _, err := Prepare(q); err == nil {
			t.Errorf("%.60q accepted", q)
		}
	}
}

// PushBatch and Advance are Push and AdvanceTo in column form.
func TestPushBatchEqualsPush(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		query, stmt, tuples, final := genCase(seed)
		want, err := runExecutor(stmt, tuples, nil, final)
		if err != nil {
			t.Fatal(err)
		}
		ex, _ := NewExecutor(stmt)
		rng := rand.New(rand.NewSource(seed))
		var deltas []Delta
		for len(tuples) > 0 {
			n := 1 + rng.Intn(len(tuples))
			if deltas, err = ex.PushBatch(tuples[:n], deltas); err != nil {
				t.Fatal(err)
			}
			tuples = tuples[n:]
		}
		if deltas, err = ex.Advance(final, deltas); err != nil {
			t.Fatal(err)
		}
		got := make([]Output, len(deltas))
		for i, d := range deltas {
			got[i] = Output{Ts: d.Ts, Kind: d.Kind, Row: d.Row()}
		}
		if d := firstDifference(renderOutputs(want), renderOutputs(got)); d != "" {
			t.Fatalf("seed %d: %s: %s", seed, query, d)
		}
	}
}

// benchTuples is the repository benchmark's shape: 100 tuples per event-time
// millisecond over 4096 keys.
func benchTuples(n int) []Tuple {
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Stream: "events", Ts: int64(i / 100),
			Row: Row{"k": fmt.Sprintf("k%d", i*7919%4096), "v": float64(i % 1000), "i": float64(i)}}
	}
	return tuples
}

// A [NOW] projection retains nothing and costs one projection per tuple: the
// values slice, the Output slice and the Row map it is returned in.
func TestNowProjectionPushAllocations(t *testing.T) {
	ex := MustPrepare("ISTREAM (SELECT k, v, i FROM events [NOW])")
	tuples := benchTuples(4096)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		tu := tuples[i%len(tuples)]
		i++
		if out, err := ex.Push(tu.Stream, tu.Ts+int64(i/len(tuples))*100, tu.Row); err != nil || len(out) != 1 {
			t.Fatalf("push: %v %v", out, err)
		}
	})
	if allocs > 8 {
		t.Fatalf("%v allocations per push of a [NOW] projection, want at most 8", allocs)
	}
	if ex.refs[0].retain || len(ex.refs[0].q) != 0 {
		t.Fatal("the window kept tuples no output can depend on")
	}
}

func benchmarkPush(b *testing.B, query string, watermarkEvery int) {
	ex := MustPrepare(query)
	tuples := benchTuples(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tu := tuples[i%len(tuples)]
		ts := tu.Ts + int64(i/len(tuples))*int64(len(tuples)/100)
		if _, err := ex.Push(tu.Stream, ts, tu.Row); err != nil {
			b.Fatal(err)
		}
		if watermarkEvery > 0 && i%watermarkEvery == watermarkEvery-1 {
			if _, err := ex.AdvanceTo(ts - 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPushNowProjection(b *testing.B) {
	benchmarkPush(b, "ISTREAM (SELECT k, v, i FROM events [NOW])", 0)
}

func BenchmarkPushTumblingSum(b *testing.B) {
	benchmarkPush(b, "ISTREAM (SELECT k, SUM(v) AS s FROM events [RANGE 1000 SLIDE 1000] GROUP BY k)", 192)
}
