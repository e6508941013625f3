package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("want 8000, got %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("want 40, got %d", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count: want 1000, got %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max: got %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean: want ~500.5, got %v", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1024 {
		t.Fatalf("p50 bucket bound out of range: %d", p50)
	}
}

func TestHistogramQuantileWithinBucketBound(t *testing.T) {
	// Property: the quantile approximation is an upper bound within 2x of an
	// exact value for power-of-two-ish data.
	check := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		max := int64(0)
		for _, v := range vals {
			h.Observe(int64(v))
			if int64(v) > max {
				max = int64(v)
			}
		}
		q := h.Quantile(1.0)
		return q <= max*2+2 && q >= 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, got min %d", h.Min())
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	c2 := r.Counter("x")
	if c2.Value() != 1 {
		t.Fatal("registry did not reuse counter")
	}
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	dump := r.Dump()
	for _, want := range []string{"counter x = 1", "gauge g = 1", "histogram h:"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("reset histogram should report zeros: %s", h.Snapshot())
	}
	if s := h.Export(); s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("reset histogram export not empty: %+v", s)
	}
	// The instrument stays usable and min/max re-prime from fresh data.
	h.Observe(7)
	if h.Count() != 1 || h.Min() != 7 || h.Max() != 7 {
		t.Fatalf("histogram broken after reset: %s", h.Snapshot())
	}
}

func TestHistogramExport(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)   // bucket 0, ub 1
	h.Observe(100) // bucket 6, ub 127
	h.Observe(100)
	s := h.Export()
	if s.Count != 3 || s.Sum != 201 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("export summary wrong: %+v", s)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("want 2 non-empty buckets, got %+v", s.Buckets)
	}
	if s.Buckets[0].UpperBound != 1 || s.Buckets[0].Count != 1 {
		t.Fatalf("bucket 0 wrong: %+v", s.Buckets[0])
	}
	if s.Buckets[1].UpperBound != 127 || s.Buckets[1].Count != 2 {
		t.Fatalf("bucket 1 wrong: %+v", s.Buckets[1])
	}
}

func TestRegistryEachAndWriteTo(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(5)
	r.GaugeFunc("gf", func() int64 { return 9 })
	r.Histogram("h").Observe(3)

	var counters, gauges, hists []string
	gaugeVals := map[string]int64{}
	r.Each(Visitor{
		Counter:   func(n string, c *Counter) { counters = append(counters, n) },
		Gauge:     func(n string, v int64) { gauges = append(gauges, n); gaugeVals[n] = v },
		Histogram: func(n string, h *Histogram) { hists = append(hists, n) },
	})
	if len(counters) != 1 || len(hists) != 1 {
		t.Fatalf("each visited %v %v", counters, hists)
	}
	if len(gauges) != 2 || gaugeVals["g"] != 5 || gaugeVals["gf"] != 9 {
		t.Fatalf("gauges wrong: %v %v", gauges, gaugeVals)
	}

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != r.Dump() {
		t.Fatalf("Dump should render via WriteTo:\n%s\nvs\n%s", b.String(), r.Dump())
	}
	if !strings.Contains(b.String(), "gauge gf = 9") {
		t.Fatalf("WriteTo missing callback gauge:\n%s", b.String())
	}
}

func TestEachVisitorsRunUnlocked(t *testing.T) {
	// A visitor reading the registry again must not deadlock.
	r := NewRegistry()
	r.Counter("a").Inc()
	done := make(chan struct{})
	go func() {
		r.Each(Visitor{Counter: func(n string, c *Counter) { r.Counter("a") }})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Each deadlocked while visitor touched the registry")
	}
}
