package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.Begin("checkpoint", "", "job").SetInt("checkpoint", 3).SetAttr("savepoint", "true")
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(spans))
	}
	s := spans[0]
	if s.Name != "checkpoint" || s.Instance != "job" {
		t.Fatalf("span identity wrong: %+v", s)
	}
	if s.Attrs["checkpoint"] != "3" || s.Attrs["savepoint"] != "true" {
		t.Fatalf("span attrs wrong: %v", s.Attrs)
	}
	if s.EndUnixNano < s.StartUnixNano || s.DurationNs < 0 {
		t.Fatalf("span timing wrong: %+v", s)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Begin("s", "", "").SetInt("i", int64(i)).End()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring size: want 4, got %d", len(spans))
	}
	if got, want := spans[0].Attrs["i"], "6"; got != want {
		t.Fatalf("oldest retained span: want i=%s, got i=%s", want, got)
	}
	if got, want := spans[3].Attrs["i"], "9"; got != want {
		t.Fatalf("newest retained span: want i=%s, got i=%s", want, got)
	}
	if tr.Total() != 10 {
		t.Fatalf("total: want 10, got %d", tr.Total())
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", "", "")
	sp.SetAttr("k", "v").SetInt("n", 1)
	sp.End() // must not panic
	if tr.Spans() != nil || tr.Total() != 0 {
		t.Fatal("nil tracer should report nothing")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(b.String()), &spans); err != nil {
		t.Fatalf("nil tracer JSON invalid: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("node.win-5s.in").Add(42)
	r.Gauge("node.win-5s.0.queue_depth").Set(7)
	r.GaugeFunc("live.credits", func() int64 { return 3 })
	h := r.Histogram("node.win-5s.latency_ns")
	h.Observe(100)
	h.Observe(100_000)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE node_win_5s_in counter",
		"node_win_5s_in 42",
		"# TYPE node_win_5s_0_queue_depth gauge",
		"node_win_5s_0_queue_depth 7",
		"live_credits 3",
		"# TYPE node_win_5s_latency_ns histogram",
		`node_win_5s_latency_ns_bucket{le="+Inf"} 2`,
		"node_win_5s_latency_ns_sum 100100",
		"node_win_5s_latency_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and ascending.
	if !strings.Contains(out, `node_win_5s_latency_ns_bucket{le="127"} 1`) {
		t.Fatalf("expected cumulative bucket for 100 at le=127:\n%s", out)
	}
}

func TestWritePrometheusQuantiles(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.Histogram("node.win.latency_ns")
	// 99 small observations and one huge one: p50 must sit in the small
	// bucket, p99 in the large one, exactly as Histogram.Quantile reports.
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	h.Observe(1_000_000)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE node_win_latency_ns_quantile gauge",
		fmt.Sprintf(`node_win_latency_ns_quantile{quantile="0.5"} %d`, h.Quantile(0.5)),
		fmt.Sprintf(`node_win_latency_ns_quantile{quantile="0.95"} %d`, h.Quantile(0.95)),
		fmt.Sprintf(`node_win_latency_ns_quantile{quantile="0.99"} %d`, h.Quantile(0.99)),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if h.Quantile(0.99) <= h.Quantile(0.5) {
		t.Fatalf("tail quantile should exceed median: p50=%d p99=%d", h.Quantile(0.5), h.Quantile(0.99))
	}
}

func TestServerEndpoints(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("node.map.in").Add(5)
	tr := NewTracer(4)
	tr.Begin("operator.process", "map", "map-0").End()
	jobs := func() []JobInfo {
		return []JobInfo{{
			Name:  "demo",
			Nodes: []NodeInfo{{Name: "src", Parallelism: 1, Source: true}, {Name: "map", Parallelism: 2, In: 5}},
			Edges: []EdgeInfo{{From: "src", To: "map", Partition: "rebalance"}},
		}}
	}
	srv := httptest.NewServer(NewServer(r, tr, jobs).Handler())
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "node_map_in 5") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	var gotJobs []JobInfo
	if err := json.Unmarshal([]byte(get("/jobs")), &gotJobs); err != nil {
		t.Fatal(err)
	}
	if len(gotJobs) != 1 || gotJobs[0].Name != "demo" || len(gotJobs[0].Nodes) != 2 {
		t.Fatalf("/jobs unexpected: %+v", gotJobs)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(get("/traces")), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Operator != "map" {
		t.Fatalf("/traces unexpected: %+v", spans)
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer(metrics.NewRegistry(), nil, nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() == "" {
		t.Fatal("no bound address")
	}
}

// TestServerCloseJoinsServeGoroutine pins the fix for the unjoined serve
// goroutine: Close waits for the background Serve loop to return, so nothing
// from a closed server keeps running. The join returns once the serve
// function has returned, which can be a moment before the runtime stops
// counting its goroutine, so the count gets up to a second to fall back to
// its baseline; a goroutine that really leaked never does.
func TestServerCloseJoinsServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s := NewServer(metrics.NewRegistry(), nil, nil)
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines grew from %d to %d across five start/close cycles", before, after)
	}
}

// TestServerCloseReleasesAddr: after Close returns, the exact address can be
// bound again — shutdown is complete, not merely initiated.
func TestServerCloseReleasesAddr(t *testing.T) {
	s1 := NewServer(metrics.NewRegistry(), nil, nil)
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(metrics.NewRegistry(), nil, nil)
	if err := s2.Start(addr); err != nil {
		t.Fatalf("rebinding %s after Close: %v", addr, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
