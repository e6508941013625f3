// Package metrics provides lightweight, concurrency-safe counters, gauges
// and log-bucketed latency histograms used by the engine and the experiment
// harness. It is intentionally dependency-free so every subsystem can report
// measurements without pulling in the engine itself.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the given value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta to the gauge.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records observations into exponential (log2) buckets. It is
// designed for latency measurements spanning nanoseconds to minutes and keeps
// exact min/max/sum alongside bucket counts so quantiles can be approximated
// without storing samples.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]int64 // bucket i holds values v with 2^i <= v < 2^(i+1); bucket 0 holds v <= 1
	count   int64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Observe records a single non-negative value. Negative values are clamped
// to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := 0
	if v > 1 {
		b = 63 - bits.LeadingZeros64(uint64(v))
	}
	h.mu.Lock()
	h.buckets[b]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Reset discards every observation, returning the histogram to its empty
// state. Harnesses use it to separate a warmup phase from the measured
// window without rebuilding the registry (the instrument identity — and any
// pointer an operator captured at wiring time — stays valid).
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.buckets = [64]int64{}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of the observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an approximation of the q-th quantile (0 <= q <= 1).
// The approximation returns the upper bound of the bucket containing the
// quantile, which overestimates by at most 2x.
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 1
			}
			ub := int64(1) << uint(i+1)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Snapshot returns a human-readable summary of the histogram.
func (h *Histogram) Snapshot() string {
	return fmt.Sprintf("count=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// HistogramBucket is one non-empty exponential bucket in an export snapshot.
// UpperBound is the largest value the bucket admits (inclusive).
type HistogramBucket struct {
	UpperBound int64
	Count      int64
}

// HistogramSnapshot is a point-in-time copy of a histogram's distribution,
// the exporter-facing view (Prometheus and friends need raw buckets, not the
// human-readable Snapshot string).
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	// Buckets lists the non-empty buckets in ascending bound order with
	// per-bucket (non-cumulative) counts.
	Buckets []HistogramBucket
}

// Export returns a consistent snapshot of the distribution.
func (h *Histogram) Export() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	if h.count > 0 {
		s.Min = h.min
	}
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		ub := int64(math.MaxInt64)
		if i < 62 {
			ub = int64(1)<<uint(i+1) - 1
		}
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: ub, Count: c})
	}
	return s
}

// Registry is a named collection of metrics. A Registry is safe for
// concurrent use; metric constructors return the existing instrument when the
// name is already registered.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter with the given name, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers a callback gauge: fn is invoked at read time, so live
// values owned by other subsystems (queue lengths, credit counts) can be
// exported without a polling loop. Registering an existing name replaces the
// callback. fn must be safe for concurrent use and must not call back into
// the registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Visitor receives every registered instrument from Each. Nil fields skip
// that instrument kind. Gauge is invoked for both stored gauges and callback
// gauges (GaugeFunc), unified to their current value.
type Visitor struct {
	Counter   func(name string, c *Counter)
	Gauge     func(name string, value int64)
	Histogram func(name string, h *Histogram)
}

// Each visits every registered metric in ascending name order per kind:
// counters, gauges (stored and callback, interleaved by name), histograms.
// The registry lock is not held during visits, so visitors may block
// or read other locks freely; instruments registered concurrently with an
// Each call may or may not be visited.
func (r *Registry) Each(v Visitor) {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	gaugeFns := make(map[string]func() int64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		gaugeFns[n] = fn
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		histograms[n] = h
	}
	r.mu.Unlock()

	if v.Counter != nil {
		for _, n := range sortedKeys(counters) {
			v.Counter(n, counters[n])
		}
	}
	if v.Gauge != nil {
		names := sortedKeys(gauges)
		for n := range gaugeFns {
			if _, dup := gauges[n]; !dup {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if g, ok := gauges[n]; ok {
				v.Gauge(n, g.Value())
			} else {
				v.Gauge(n, gaugeFns[n]())
			}
		}
	}
	if v.Histogram != nil {
		for _, n := range sortedKeys(histograms) {
			v.Histogram(n, histograms[n])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteTo renders every registered metric in the human-readable dump format,
// sorted by name, one per line. Exporters that need a machine format should
// use Each instead of parsing this output.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var lines []string
	r.Each(Visitor{
		Counter: func(n string, c *Counter) {
			lines = append(lines, fmt.Sprintf("counter %s = %d", n, c.Value()))
		},
		Gauge: func(n string, v int64) {
			lines = append(lines, fmt.Sprintf("gauge %s = %d", n, v))
		},
		Histogram: func(n string, h *Histogram) {
			lines = append(lines, fmt.Sprintf("histogram %s: %s", n, h.Snapshot()))
		},
	})
	sort.Strings(lines)
	n, err := io.WriteString(w, strings.Join(lines, "\n"))
	return int64(n), err
}

// Dump renders every registered metric via WriteTo.
func (r *Registry) Dump() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}
