package main

import "testing"

// expectedResults renders the reference fold as the results a correct job
// would deliver, in window order.
func expectedResults(r *ring, windowMs, admitted int64) []result {
	var out []result
	foldWindows(r, windowMs, admitted, func(end int64, sums []float64, touched []uint32) {
		for _, k := range touched {
			out = append(out, result{key: r.keys[k], end: end, sum: sums[k]})
		}
	})
	return out
}

// logOf is a log holding rs.
func logOf(rs []result) *resultLog {
	l := &resultLog{}
	for _, r := range rs {
		l.add(r)
	}
	return l
}

func TestFoldWindowsAgainstBruteForce(t *testing.T) {
	r := newRing(11, 10_000, 50, true, nil)
	const windowMs, admitted = 7, 23_456 // more than two laps, a ragged last window
	want := map[int64]map[string]float64{}
	for idx := int64(0); idx < admitted; idx++ {
		end := (idx/recordsPerMs/windowMs + 1) * windowMs
		if want[end] == nil {
			want[end] = map[string]float64{}
		}
		want[end][r.key(idx)] += r.value(idx)
	}
	n := 0
	for _, res := range expectedResults(r, windowMs, admitted) {
		n++
		if got, ok := want[res.end][res.key]; !ok || got != res.sum {
			t.Fatalf("window %d key %s: fold says %v, brute force %v (present %v)", res.end, res.key, res.sum, got, ok)
		}
	}
	total := 0
	for _, w := range want {
		total += len(w)
	}
	if n != total {
		t.Fatalf("fold yields %d results, brute force %d", n, total)
	}
}

func TestCheckWindowsCountsInjectedFaults(t *testing.T) {
	r := newRing(5, 10_000, 64, false, nil)
	const windowMs, admitted = 10, 12_345
	good := expectedResults(r, windowMs, admitted)
	clone := func() []result { return append([]result(nil), good...) }

	if v := checkWindows(r, windowMs, admitted, logOf(good), nil); v.failed != 0 || v.attempted != int64(len(good)) {
		t.Fatalf("correct output: %v", v)
	}

	dropped := append(clone()[:17], good[18:]...)
	if v := checkWindows(r, windowMs, admitted, logOf(dropped), nil); v.missing != 1 || v.failed != 1 {
		t.Errorf("one result dropped: %v", v)
	}

	duplicated := append(clone(), good[40])
	if v := checkWindows(r, windowMs, admitted, logOf(duplicated), nil); v.duplicated != 1 || v.failed != 1 {
		t.Errorf("one result duplicated: %v", v)
	}

	wrong := clone()
	wrong[99].sum++
	if v := checkWindows(r, windowMs, admitted, logOf(wrong), nil); v.wrong != 1 || v.failed != 1 {
		t.Errorf("one result wrong-valued: %v", v)
	}

	stray := append(clone(), result{key: "k3", end: 1 << 40, sum: 1})
	if v := checkWindows(r, windowMs, admitted, logOf(stray), nil); v.unaccounted != 1 || v.failed != 1 {
		t.Errorf("one result for a window that never was: %v", v)
	}

	// A restored incarnation delivering again what its predecessor delivered
	// is replay, not failure; the same incarnation doing so is a duplicate.
	replay := good[7]
	replay.run = 1
	firsts := 0
	v := checkWindows(r, windowMs, admitted, logOf(append(clone(), replay)), func(int) { firsts++ })
	if v.replayed != 1 || v.failed != 0 {
		t.Errorf("one result replayed by a later incarnation: %v", v)
	}
	if firsts != len(good) {
		t.Errorf("first deliveries reported %d times, want once per expected result (%d)", firsts, len(good))
	}
}

func TestRecordCheckCountsInjectedFaults(t *testing.T) {
	r := newRing(5, 1000, 16, false, nil)
	const admitted = 2500
	feedAll := func(c *recordCheck, skip, twice, bad int64) {
		for idx := int64(0); idx < admitted; idx++ {
			if !passesFilter(r, idx) || idx == skip {
				continue
			}
			v := r.value(idx)
			if idx == bad {
				v++
			}
			c.observe(idx, r.key(idx), v)
			if idx == twice {
				c.observe(idx, r.key(idx), v)
			}
		}
	}
	c := &recordCheck{ring: r, want: passesFilter}
	feedAll(c, -1, -1, -1)
	if v := c.finish(admitted); v.failed != 0 || v.attempted != admitted*9/10 {
		t.Fatalf("correct feed: %v", v)
	}
	c = &recordCheck{ring: r, want: passesFilter}
	feedAll(c, 1234, 77, 2001)
	c.observe(20, r.key(20), r.value(20)) // the filter should have dropped it
	v := c.finish(admitted)
	if v.missing != 1 || v.duplicated != 1 || v.wrong != 1 || v.unaccounted != 1 || v.failed != 4 {
		t.Errorf("one dropped, one duplicated, one wrong, one unfiltered: %v", v)
	}
}
