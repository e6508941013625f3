package obsv

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
)

// WritePrometheus renders every metric in the registry in the Prometheus
// text exposition format (version 0.0.4):
//
//   - counters   -> `# TYPE name counter` with a `name` sample
//   - gauges     -> `# TYPE name gauge` (stored and callback gauges alike)
//   - histograms -> `# TYPE name histogram` with cumulative `name_bucket`
//     samples over the registry histogram's exponential bounds,
//     plus `name_sum` and `name_count`, plus a summary-style companion
//     gauge family `name_quantile{quantile="0.5"|"0.95"|"0.99"}` so
//     scrapers see the same tail estimates the engine itself reports
//     (Histogram.Quantile's bucket upper bounds) without re-deriving them
//     from the exponential buckets
//
// Metric names are sanitised to the Prometheus grammar: every character
// outside [a-zA-Z0-9_:] becomes '_' (so "node.win-5s.in" serves as
// "node_win_5s_in").
func WritePrometheus(w io.Writer, r *metrics.Registry) error {
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	r.Each(metrics.Visitor{
		Counter: func(name string, c *metrics.Counter) {
			n := promName(name)
			emit("# TYPE %s counter\n%s %d\n", n, n, c.Value())
		},
		Gauge: func(name string, v int64) {
			n := promName(name)
			emit("# TYPE %s gauge\n%s %d\n", n, n, v)
		},
		Histogram: func(name string, h *metrics.Histogram) {
			n := promName(name)
			snap := h.Export()
			emit("# TYPE %s histogram\n", n)
			cum := int64(0)
			for _, b := range snap.Buckets {
				cum += b.Count
				emit("%s_bucket{le=\"%d\"} %d\n", n, b.UpperBound, cum)
			}
			emit("%s_bucket{le=\"+Inf\"} %d\n", n, snap.Count)
			emit("%s_sum %d\n%s_count %d\n", n, snap.Sum, n, snap.Count)
			// The `name` family is a histogram, whose sample vocabulary is
			// fixed (_bucket/_sum/_count) — the quantiles go out as a
			// separate gauge family to stay within the exposition grammar.
			emit("# TYPE %s_quantile gauge\n", n)
			for _, q := range promQuantiles {
				emit("%s_quantile{quantile=\"%s\"} %d\n", n, q.label, h.Quantile(q.q))
			}
		},
	})
	return err
}

// promQuantiles are the exported tail estimates, matching the quantiles the
// engine's own Snapshot strings and the bench harness record.
var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
