package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obsv"
)

// sortEvents orders events deterministically for output comparison.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Timestamp != evs[j].Timestamp {
			return evs[i].Timestamp < evs[j].Timestamp
		}
		return evs[i].Key < evs[j].Key
	})
}

// httpGet fetches a URL and returns its body, failing the test on any error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// TestSendDisabledPathNoAllocs pins down the "observability off" contract:
// the record send path must not allocate, so an uninstrumented job pays
// nothing for the instrumentation hooks.
func TestSendDisabledPathNoAllocs(t *testing.T) {
	ch := make(chan message, 1)
	o := newOutEdge(&edge{kind: PartitionForward}, 1, []chan message{ch}, []int{0})
	ctx := context.Background()
	ev := Event{Key: "k", Timestamp: 42, Value: int64(7)} // boxed once, outside the loop
	allocs := testing.AllocsPerRun(1000, func() {
		if !o.sendRecord(ctx, ev) {
			t.Fatal("send failed")
		}
		recycle(<-ch)
	})
	if allocs != 0 {
		t.Fatalf("disabled send path allocates: %v allocs/op", allocs)
	}
}

// TestSendInstrumentedMeasuresBlockedTime checks that a send stalling on a
// full channel records the stall duration on the edge histogram, and that an
// unobstructed send records nothing.
func TestSendInstrumentedMeasuresBlockedTime(t *testing.T) {
	ch := make(chan message, 1)
	h := metrics.NewHistogram()
	o := newOutEdge(&edge{kind: PartitionForward}, 1, []chan message{ch}, []int{0})
	o.blocked = h
	ctx := context.Background()

	// Free channel: fast path, no observation.
	if !o.sendRecord(ctx, Event{}) {
		t.Fatal("send failed")
	}
	if h.Count() != 0 {
		t.Fatalf("unobstructed send observed blocked time: count=%d", h.Count())
	}

	// Full channel: the send must block until the reader drains, and the
	// stall must land in the histogram.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !o.sendRecord(ctx, Event{}) {
			t.Error("blocked send failed")
		}
	}()
	time.Sleep(20 * time.Millisecond)
	<-ch // make room; the goroutine's pending send completes
	<-done
	<-ch
	if h.Count() != 1 {
		t.Fatalf("blocked send not observed: count=%d", h.Count())
	}
	if h.Max() < int64(10*time.Millisecond) {
		t.Fatalf("blocked time implausibly small: %v", time.Duration(h.Max()))
	}
}

// TestSendMarkerRotatesTargets verifies markers sample every downstream
// channel over time while sending to only one instance per hop.
func TestSendMarkerRotatesTargets(t *testing.T) {
	chs := []chan message{make(chan message, 8), make(chan message, 8), make(chan message, 8)}
	o := newOutEdge(&edge{kind: PartitionRebalance}, 1, chs, []int{0, 0, 0})
	mk := &latencyMarker{origin: 1, hopped: 1, from: "src", source: "src-0"}
	for i := 0; i < 6; i++ {
		if !o.sendMarker(context.Background(), mk) {
			t.Fatal("sendMarker failed")
		}
	}
	for i, ch := range chs {
		if got := len(ch); got != 2 {
			t.Fatalf("target %d: want 2 markers, got %d", i, got)
		}
		m := <-ch
		if m.kind != msgLatencyMarker || m.marker != mk {
			t.Fatalf("target %d: unexpected message %+v", i, m)
		}
	}
}

// TestHandleMarkerObservesAndForwards exercises one marker hop through an
// operator instance: end-to-end and per-hop latency are recorded, and a
// *fresh* marker (origin preserved, hop time restamped) goes downstream.
func TestHandleMarkerObservesAndForwards(t *testing.T) {
	j := newJob(Config{Name: "mk"}, &Graph{})
	down := make(chan message, 4)
	in := &instance{
		job:     j,
		node:    &node{name: "op"},
		id:      "op-0",
		latency: j.metrics.Histogram("node.op.latency_ns"),
		outs: []*outEdge{{
			edge:    &edge{kind: PartitionForward},
			targets: []chan message{down},
			chIDs:   []int{0},
		}},
	}
	origin := time.Now().Add(-5 * time.Millisecond).UnixNano()
	mk := &latencyMarker{origin: origin, hopped: origin, from: "src", source: "src-0"}
	if err := in.handleMarker(context.Background(), mk); err != nil {
		t.Fatal(err)
	}

	if c := in.latency.Count(); c != 1 {
		t.Fatalf("latency histogram count: want 1, got %d", c)
	}
	if min := in.latency.Min(); min < int64(5*time.Millisecond) {
		t.Fatalf("end-to-end latency too small: %v", time.Duration(min))
	}
	if c := j.metrics.Histogram("edge.src.op.hop_ns").Count(); c != 1 {
		t.Fatalf("hop histogram count: want 1, got %d", c)
	}

	fwd := <-down
	if fwd.kind != msgLatencyMarker {
		t.Fatalf("forwarded message kind: %v", fwd.kind)
	}
	if fwd.marker.origin != origin {
		t.Fatal("forwarded marker lost its origin timestamp")
	}
	if fwd.marker.hopped <= origin {
		t.Fatal("forwarded marker not restamped at the hop")
	}
	if fwd.marker.from != "op" {
		t.Fatalf("forwarded marker from: want op, got %s", fwd.marker.from)
	}
	if fwd.marker.source != "src-0" {
		t.Fatalf("forwarded marker source: want src-0, got %s", fwd.marker.source)
	}
}

// TestHandleMarkerAtSink verifies a sink (no out edges) terminates the marker
// after observing it.
func TestHandleMarkerAtSink(t *testing.T) {
	j := newJob(Config{Name: "mk"}, &Graph{})
	in := &instance{
		job:     j,
		node:    &node{name: "sink"},
		id:      "sink-0",
		latency: j.metrics.Histogram("node.sink.latency_ns"),
	}
	now := time.Now().UnixNano()
	if err := in.handleMarker(context.Background(), &latencyMarker{origin: now, hopped: now, from: "op", source: "src-0"}); err != nil {
		t.Fatal(err)
	}
	if c := in.latency.Count(); c != 1 {
		t.Fatalf("sink latency count: want 1, got %d", c)
	}
}

// TestMarkersAreInvisibleToOperators runs the same pipeline with and without
// markers and checks outputs match exactly: markers must never reach operator
// callbacks or perturb their state.
func TestMarkersAreInvisibleToOperators(t *testing.T) {
	run := func(instrument bool) []Event {
		cfg := Config{Name: "inv"}
		if instrument {
			cfg.Instrument = true
			cfg.LatencyMarkerInterval = 3 // aggressively frequent
		}
		b := NewBuilder(cfg)
		sink := NewCollectSink()
		b.Source("src", NewSliceSourceFactory(genEvents(200, 4)), WithBoundedDisorder(0)).
			KeyBy(func(e Event) string { return e.Key }).
			Map("tag", func(e Event) (Event, bool) {
				e.Value = e.Key
				return e, true
			}).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		runJob(t, j)
		evs := sink.Events()
		sortEvents(evs)
		return evs
	}
	plain, marked := run(false), run(true)
	if len(plain) != len(marked) {
		t.Fatalf("output sizes differ: %d vs %d", len(plain), len(marked))
	}
	for i := range plain {
		if plain[i] != marked[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, plain[i], marked[i])
		}
	}
}

// TestDescribeTopology checks /jobs-level introspection data straight from
// Job.Describe on an instrumented, completed job.
func TestDescribeTopology(t *testing.T) {
	b := NewBuilder(Config{Name: "describe", Instrument: true, LatencyMarkerInterval: 10})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(100, 4)), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		ProcessWith("op", MapFunc(func(e Event, ctx Context) error {
			ctx.Emit(e)
			return nil
		}), 2).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// Before Run: topology only, no instances yet.
	pre := j.Describe()
	if len(pre.Nodes) != 3 || len(pre.Edges) != 2 {
		t.Fatalf("pre-run topology: %d nodes, %d edges", len(pre.Nodes), len(pre.Edges))
	}
	for _, n := range pre.Nodes {
		if len(n.Instances) != 0 {
			t.Fatalf("instances visible before Run: %+v", n)
		}
	}

	runJob(t, j)
	info := j.Describe()
	byName := map[string]obsv.NodeInfo{}
	for _, n := range info.Nodes {
		byName[n.Name] = n
	}
	src, op, out := byName["src"], byName["op"], byName["out"]
	if !src.Source || src.In != 0 || src.Out != 100 {
		t.Fatalf("src node: %+v", src)
	}
	if op.Parallelism != 2 || len(op.Instances) != 2 || op.In != 100 || op.Out != 100 {
		t.Fatalf("op node: %+v", op)
	}
	if out.In != 100 {
		t.Fatalf("out node: %+v", out)
	}
	if len(info.Edges) != 2 || info.Edges[0].Partition != "hash" {
		t.Fatalf("edges: %+v", info.Edges)
	}
	// The watermark gauges drained to the pre-MaxWatermark value.
	for _, ii := range op.Instances {
		if ii.Watermark <= 0 {
			t.Fatalf("instance watermark not advanced: %+v", ii)
		}
	}
	// The whole description must serialise.
	if _, err := json.Marshal(info); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentedJobRecordsLatencyHistograms is the metric-side acceptance
// check at the core level: each operator node gets a populated latency_ns
// histogram when markers flow.
func TestInstrumentedJobRecordsLatencyHistograms(t *testing.T) {
	b := NewBuilder(Config{Name: "lat", Instrument: true, LatencyMarkerInterval: 5})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(300, 3)), WithBoundedDisorder(0)).
		Map("a", func(e Event) (Event, bool) { return e, true }).
		Map("b", func(e Event) (Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != 300 {
		t.Fatalf("lost records: %d", sink.Len())
	}
	for _, nodeName := range []string{"a", "b", "out"} {
		h := j.Metrics().Histogram("node." + nodeName + ".latency_ns")
		if h.Count() == 0 {
			t.Fatalf("node %s: latency histogram empty", nodeName)
		}
		if h.Min() < 0 {
			t.Fatalf("node %s: negative latency %d", nodeName, h.Min())
		}
	}
	// Hop histograms exist per traversed edge.
	for _, e := range []string{"edge.src.a.hop_ns", "edge.a.b.hop_ns", "edge.b.out.hop_ns"} {
		if j.Metrics().Histogram(e).Count() == 0 {
			t.Fatalf("%s empty", e)
		}
	}
}

// TestBatchedExchangeMetrics checks an instrumented job populates the
// per-edge batch instrumentation — the batch-size histogram and the three
// flush-reason counters (the batch filled, a control message, the sender ran
// out of input) — that every flushed batch is counted under exactly one
// reason, and that no batch exceeds the configured capacity. The source
// collects 12 records per call against a capacity of 8 and a watermark every
// 16 records, so its edge sees all three reasons.
func TestBatchedExchangeMetrics(t *testing.T) {
	b := NewBuilder(Config{
		Name:              "batchmetrics",
		Instrument:        true,
		MaxBatchSize:      8,
		WatermarkInterval: 16,
	})
	events := genEvents(504, 4)
	sink := NewCollectSink()
	b.Source("src", SourceFunc(func(ctx SourceContext) error {
		for i := 0; i < len(events); i += 12 {
			if !ctx.CollectBatch(events[i : i+12]) {
				return nil
			}
		}
		return nil
	}), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		Map("op", func(e Event) (Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	if sink.Len() != len(events) {
		t.Fatalf("lost records: %d", sink.Len())
	}
	for _, pfx := range []string{"edge.src.op.", "edge.op.out."} {
		h := j.Metrics().Histogram(pfx + "batch_size")
		if h.Count() == 0 {
			t.Fatalf("%sbatch_size histogram empty", pfx)
		}
		if h.Max() > 8 {
			t.Fatalf("%sbatch_size recorded %d > configured max 8", pfx, h.Max())
		}
		size := j.Metrics().Counter(pfx + "flush_size").Value()
		ctl := j.Metrics().Counter(pfx + "flush_ctl").Value()
		idle := j.Metrics().Counter(pfx + "flush_idle").Value()
		if size+ctl+idle != h.Count() {
			t.Fatalf("%s flush counters (%d+%d+%d) disagree with histogram count %d",
				pfx, size, ctl, idle, h.Count())
		}
		if pfx == "edge.src.op." && (size == 0 || ctl == 0 || idle == 0) {
			t.Fatalf("%s want every flush reason counted, got size=%d ctl=%d idle=%d", pfx, size, ctl, idle)
		}
	}
}

// TestWatermarkLagAgainstEmittedEventTime runs synthetic timestamps starting
// at 0: the reported watermark lag must be measured against the largest
// timestamp the source emitted, so it stays below the input's event-time
// span instead of reading as the wall-clock epoch.
func TestWatermarkLagAgainstEmittedEventTime(t *testing.T) {
	events := genEvents(400, 4) // timestamps 0..3990 ms
	span := events[len(events)-1].Timestamp - events[0].Timestamp
	b := NewBuilder(Config{Name: "lag", Instrument: true, WatermarkInterval: 8})
	b.Source("src", NewSliceSourceFactory(events), WithBoundedDisorder(50)).
		Map("op", func(e Event) (Event, bool) { return e, true }).
		Sink("out", NewCollectSink().Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	for _, n := range j.Describe().Nodes {
		for _, ii := range n.Instances {
			if n.Source {
				continue
			}
			if ii.Watermark <= 0 {
				t.Fatalf("%s: watermark never advanced", ii.ID)
			}
			if ii.WatermarkLagMs < 0 || ii.WatermarkLagMs >= span {
				t.Fatalf("%s: watermark lag %d ms, want within [0, %d)", ii.ID, ii.WatermarkLagMs, span)
			}
		}
	}
}

// TestServeIntrospectionEndToEnd boots the HTTP server against a real job and
// exercises the acceptance URLs.
func TestServeIntrospectionEndToEnd(t *testing.T) {
	tr := obsv.NewTracer(256)
	store := NewMemorySnapshotStore()
	b := NewBuilder(Config{
		Name:                  "http",
		Instrument:            true,
		LatencyMarkerInterval: 5,
		Tracer:                tr,
		SnapshotStore:         store,
		CheckpointEvery:       100,
	})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(400, 4)), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		Map("op", func(e Event) (Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := j.ServeIntrospection("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	runJob(t, j)

	body := httpGet(t, "http://"+srv.Addr()+"/metrics")
	for _, want := range []string{
		"node_op_in ",
		"node_op_0_watermark_lag_ms ",
		"node_op_0_queue_depth ",
		"# TYPE node_op_latency_ns histogram",
		"checkpoint_duration_ns_count ",
		"checkpoint_completed ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	var jobs []obsv.JobInfo
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+srv.Addr()+"/jobs")), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Name != "http" || len(jobs[0].Nodes) != 3 {
		t.Fatalf("/jobs unexpected: %+v", jobs)
	}
	if jobs[0].LastCheckpoint < 1 {
		t.Fatalf("no checkpoint completed: %+v", jobs[0])
	}

	var spans []obsv.Span
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+srv.Addr()+"/traces")), &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	for _, want := range []string{"checkpoint", "snapshot", "barrier.align", "operator.process", "source.run", "instance.run"} {
		if !names[want] {
			t.Fatalf("/traces missing %q spans; have %v", want, names)
		}
	}
}

// TestRescaleCheckpointTraced covers the traced wrapper around rescaling.
func TestRescaleCheckpointTraced(t *testing.T) {
	tr := obsv.NewTracer(16)
	store := NewMemorySnapshotStore()
	b := NewBuilder(Config{Name: "rescale", SnapshotStore: store, CheckpointEvery: 50})
	sink := NewCollectSink()
	b.Source("src", NewSliceSourceFactory(genEvents(200, 8)), WithBoundedDisorder(0)).
		KeyBy(func(e Event) string { return e.Key }).
		Map("op", func(e Event) (Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runJob(t, j)
	cp := j.LastCheckpoint()
	if cp < 1 {
		t.Fatal("no checkpoint to rescale from")
	}
	if _, err := RescaleCheckpointTraced(tr, store, cp, cp+1000, "op", 2, 0); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var found bool
	for _, s := range spans {
		if s.Name == "rescale" && s.Operator == "op" && s.Attrs["new_parallelism"] == "2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rescale span recorded: %+v", spans)
	}
}

// timerPerRecordOp registers an event-time timer at each record's timestamp
// and counts the timers that fire.
type timerPerRecordOp struct {
	BaseOperator
	fired *atomic.Int64
}

func (o *timerPerRecordOp) ProcessElement(e Event, ctx Context) error {
	ctx.RegisterEventTimeTimer(e.Timestamp)
	return nil
}

func (o *timerPerRecordOp) OnTimer(int64, Context) error {
	o.fired.Add(1)
	return nil
}

// TestInstrumentedJobCountsTimers: with Instrument on, each instance counts
// the timers it fires and the time it spends firing them, and /jobs shows
// both; with it off, neither counter exists.
func TestInstrumentedJobCountsTimers(t *testing.T) {
	for _, instrument := range []bool{true, false} {
		var fired atomic.Int64
		b := NewBuilder(Config{Name: "timers", Instrument: instrument})
		b.Source("src", NewSliceSourceFactory(genEvents(400, 4)), WithBoundedDisorder(0)).
			KeyBy(func(e Event) string { return e.Key }).
			ProcessWith("tim", func() Operator { return &timerPerRecordOp{fired: &fired} }, 2).
			Sink("out", NewCollectSink().Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		runJob(t, j)
		if fired.Load() != 400 {
			t.Fatalf("fired %d timers, want 400", fired.Load())
		}
		counted := map[string]bool{}
		j.Metrics().Each(metrics.Visitor{Counter: func(name string, c *metrics.Counter) {
			if strings.HasSuffix(name, ".timers_fired") || strings.HasSuffix(name, ".timer_ns") {
				counted[name] = c.Value() > 0
			}
		}})
		var described int64
		for _, n := range j.Describe().Nodes {
			for _, in := range n.Instances {
				described += in.TimersFired
				if n.Name == "tim" && instrument && in.TimerNs <= 0 {
					t.Fatalf("instance %s: timer_ns %d", in.ID, in.TimerNs)
				}
			}
		}
		if !instrument {
			if len(counted) != 0 || described != 0 {
				t.Fatalf("uninstrumented job has timer counters %v (/jobs: %d fired)", counted, described)
			}
			continue
		}
		if described != 400 {
			t.Fatalf("/jobs reports %d timers fired, want 400", described)
		}
		for _, name := range []string{"node.tim.0.timers_fired", "node.tim.1.timers_fired", "node.tim.0.timer_ns", "node.tim.1.timer_ns"} {
			if !counted[name] {
				t.Fatalf("counter %s missing or zero; have %v", name, counted)
			}
		}
	}
}
