package cql

import (
	"testing"
)

// fuzzSeeds are the benchmark's and cmd/serve's queries, two shapes from the
// differential generator, and the findings. Every query in cql_test.go is in
// testdata/fuzz/FuzzParse.
var fuzzSeeds = []string{
	"ISTREAM (SELECT k, v, i FROM events [NOW])",
	"ISTREAM (SELECT k, v, i FROM events [NOW] WHERE v > 900)",
	"ISTREAM (SELECT k, SUM(v) AS s FROM events [RANGE 1000 SLIDE 1000] GROUP BY k)",
	"ISTREAM (SELECT src, bytes FROM flows [NOW] WHERE bytes > 60000)",
	"ISTREAM (SELECT proto, COUNT(*) AS flows, SUM(bytes) AS bytes FROM flows [RANGE 1000 SLIDE 1000] GROUP BY proto)",
	"DSTREAM (SELECT x.v, y.w FROM s [ROWS 0] AS x, s [RANGE 2 SLIDE 1] AS y WHERE x.j = y.j)",
	"RSTREAM (SELECT j + 1 AS g, MAX(w) - MIN(v) AS spread FROM s [RANGE 6 SLIDE 4] WHERE -v <= w / 2 GROUP BY j + 1 HAVING COUNT(m) >= 1 OR SUM(v) > 0)",
	// Findings: COUNT() used to index its absent argument; an aggregate of
	// an aggregate and an unknown function surfaced only at the first tuple.
	"SELECT COUNT() FROM s",
	"SELECT SUM(COUNT(*)) FROM s",
	"SELECT f(v) FROM s",
	"SELECT v FROM s HAVING v > 1",
	"SELECT v FROM s [RANGE 9223372036854775807 SLIDE 9223372036854775807]",
	"RSTREAM (SELECT COUNT(*) FROM s [RANGE 3 SLIDE 9223372036854775807])",
}

// Arbitrary text through lexer, parser and planner gives an error or a plan
// that works: a few pushes, far apart in time, never panic, hang or allocate
// without bound.
func FuzzParse(f *testing.F) {
	for _, q := range fuzzSeeds {
		f.Add(q)
	}
	rows := []Row{
		{"k": "a", "v": 1.5, "w": int64(2), "i": 1.0, "s": "x", "b": true, "j": 0.0, "x": 1.0, "price": 10.0, "symbol": "A"},
		{"k": int64(1), "v": -2.0, "w": 0.0, "i": 2.0, "s": "y", "b": false, "j": 1.0, "x": 4.0, "price": 200.0, "symbol": "B"},
		{"k": "a", "v": 1.5, "w": int64(2), "i": 3.0, "s": "x", "b": true, "j": 0.0, "x": 7.0, "price": 10.0, "symbol": "A", "m": nil},
	}
	f.Fuzz(func(t *testing.T, query string) {
		ex, err := Prepare(query)
		if err != nil {
			return
		}
		streams := ex.Streams()
		if len(streams) == 0 {
			t.Fatalf("%q compiled to a plan that reads no stream", query)
		}
		ts := int64(-5)
		for i := 0; i < 12; i++ {
			if i%4 == 3 {
				ts += 1 << 40 // a gap no window survives; must not be walked instant by instant
			}
			ts += int64(i % 3)
			outs, err := ex.Push(streams[i%len(streams)], ts, rows[i%len(rows)])
			if err != nil {
				return // a failed executor is discarded
			}
			if len(outs) > 1<<16 {
				t.Fatalf("%q: %d outputs from one push", query, len(outs))
			}
		}
		for _, w := range []int64{ts, ts + 1, 1 << 62, 1<<63 - 1} {
			if _, err := ex.AdvanceTo(w); err != nil {
				return
			}
		}
	})
}
