package window

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

func TestTumblingAssign(t *testing.T) {
	a := NewTumbling(10)
	for _, tc := range []struct {
		ts    int64
		start int64
	}{
		{0, 0}, {9, 0}, {10, 10}, {15, 10}, {-1, -10}, {-10, -10},
	} {
		ws := a.Assign(tc.ts)
		if len(ws) != 1 || ws[0].Start != tc.start || ws[0].End != tc.start+10 {
			t.Fatalf("Assign(%d) = %v, want start %d", tc.ts, ws, tc.start)
		}
	}
}

func TestSlidingAssignCoversTimestamp(t *testing.T) {
	// Property: every assigned window contains the timestamp, and the count
	// equals size/slide for aligned parameters.
	a := NewSliding(60, 20)
	check := func(ts int64) bool {
		ws := a.Assign(ts % 1_000_000)
		if len(ws) != 3 {
			return false
		}
		for _, w := range ws {
			if !w.Contains(ts % 1_000_000) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSessionAssign(t *testing.T) {
	a := NewSession(30)
	ws := a.Assign(100)
	if len(ws) != 1 || ws[0].Start != 100 || ws[0].End != 130 {
		t.Fatalf("session assign wrong: %v", ws)
	}
	if !a.IsSession() {
		t.Fatal("session assigner must report IsSession")
	}
}

// TestSlidingAggregatorsAgree is the E3 correctness property: all three
// strategies produce identical results on random ordered streams, for both
// invertible (sum) and non-invertible (min, max) functions.
func TestSlidingAggregatorsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		size := int64(10+rng.Intn(50)) * 10
		slide := int64(1+rng.Intn(10)) * 10
		if slide > size {
			slide = size
		}
		for _, fn := range []AggFn{Sum, Min, Max} {
			naive := NewNaiveSliding(size, slide, fn)
			panes := NewPaneSliding(size, slide, fn)
			stacks := NewTwoStacksSliding(size, slide, fn)

			ts := int64(0)
			var rn, rp, rs []Result
			for i := 0; i < 2000; i++ {
				ts += int64(rng.Intn(8))
				v := rng.Float64()*200 - 100
				rn = append(rn, naive.Add(ts, v)...)
				rp = append(rp, panes.Add(ts, v)...)
				rs = append(rs, stacks.Add(ts, v)...)
			}
			if len(rn) != len(rp) || len(rn) != len(rs) {
				t.Fatalf("%s size=%d slide=%d: result counts differ: naive=%d panes=%d stacks=%d",
					fn.Name, size, slide, len(rn), len(rp), len(rs))
			}
			for i := range rn {
				if rn[i].End != rp[i].End || rn[i].End != rs[i].End {
					t.Fatalf("%s: window ends differ at %d: %v %v %v", fn.Name, i, rn[i], rp[i], rs[i])
				}
				if !almostEq(rn[i].Value, rp[i].Value) || !almostEq(rn[i].Value, rs[i].Value) {
					t.Fatalf("%s size=%d slide=%d result %d(end=%d): naive=%v panes=%v stacks=%v",
						fn.Name, size, slide, i, rn[i].End, rn[i].Value, rp[i].Value, rs[i].Value)
				}
			}
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if -a > scale {
		scale = -a
	}
	return d <= 1e-6*scale
}

func TestVectorizedKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, fn := range []AggFn{Sum, Min, Max} {
		scalar := NewScalarTumbling(64, fn)
		batch := NewBatchTumbling(64, fn)
		values := make([]float64, 64*100+17)
		for i := range values {
			values[i] = rng.Float64() * 1000
		}
		rs := scalar.Process(values)
		rb := batch.Process(values)
		if len(rs) != len(rb) {
			t.Fatalf("%s: result count differs: %d vs %d", fn.Name, len(rs), len(rb))
		}
		for i := range rs {
			if !almostEq(rs[i], rb[i]) {
				t.Fatalf("%s window %d: scalar=%v batch=%v", fn.Name, i, rs[i], rb[i])
			}
		}
	}
}

// --- Engine integration tests -------------------------------------------

func buildWindowJob(t *testing.T, events []core.Event, assigner Assigner, agg Aggregate, opts ...Option) *core.CollectSink {
	t.Helper()
	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "win-test", WatermarkInterval: 1})
	s := b.Source("src", core.NewSliceSourceFactory(events), core.WithBoundedDisorder(0)).
		KeyBy(func(e core.Event) string { return e.Key })
	Apply(s, "window", assigner, agg, opts...).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return sink
}

func TestTumblingCountInEngine(t *testing.T) {
	// 100 events, 10ms apart, two keys alternating; tumbling 100ms → each
	// window holds 10 events, 5 per key.
	var events []core.Event
	for i := 0; i < 100; i++ {
		events = append(events, core.Event{
			Key:       fmt.Sprintf("k%d", i%2),
			Timestamp: int64(i * 10),
			Value:     1.0,
		})
	}
	sink := buildWindowJob(t, events, NewTumbling(100), CountAggregate())
	// 10 windows x 2 keys.
	if sink.Len() != 20 {
		t.Fatalf("want 20 window results, got %d: %v", sink.Len(), sink.Events())
	}
	for _, e := range sink.Events() {
		if e.Value.(int64) != 5 {
			t.Fatalf("window count: want 5, got %v (%v)", e.Value, e)
		}
	}
}

func TestSlidingSumInEngine(t *testing.T) {
	var events []core.Event
	for i := 0; i < 60; i++ {
		events = append(events, core.Event{Key: "k", Timestamp: int64(i * 10), Value: 1.0})
	}
	sink := buildWindowJob(t, events, NewSliding(100, 50),
		FloatAggregate(Sum, func(e core.Event) float64 { return e.Value.(float64) }))
	// Full windows contain 10 events each.
	full := 0
	for _, e := range sink.Events() {
		if e.Value.(float64) == 10 {
			full++
		}
	}
	if full < 9 {
		t.Fatalf("expected at least 9 full sliding windows of sum 10, got %d: %v", full, sink.Events())
	}
}

func TestSessionWindowsMerge(t *testing.T) {
	// Two bursts per key separated by more than the gap → two sessions.
	events := []core.Event{
		{Key: "a", Timestamp: 0, Value: 1.0},
		{Key: "a", Timestamp: 10, Value: 1.0},
		{Key: "a", Timestamp: 20, Value: 1.0},
		{Key: "a", Timestamp: 200, Value: 1.0},
		{Key: "a", Timestamp: 210, Value: 1.0},
		{Key: "b", Timestamp: 500, Value: 1.0},
	}
	sink := buildWindowJob(t, events, NewSession(50), CountAggregate())
	got := map[string][]int64{}
	for _, e := range sink.Events() {
		got[e.Key] = append(got[e.Key], e.Value.(int64))
	}
	if len(got["a"]) != 2 {
		t.Fatalf("key a: want 2 sessions, got %v", got["a"])
	}
	sum := got["a"][0] + got["a"][1]
	if sum != 5 {
		t.Fatalf("key a sessions should cover 5 events, got %v", got["a"])
	}
	if len(got["b"]) != 1 || got["b"][0] != 1 {
		t.Fatalf("key b: want one session of 1, got %v", got["b"])
	}
}

func TestLateDataDroppedWithoutLateness(t *testing.T) {
	// Ordered events advance the watermark past window [0,100); then a late
	// event for that window arrives and must be dropped.
	var events []core.Event
	for i := 0; i < 30; i++ {
		events = append(events, core.Event{Key: "k", Timestamp: int64(i * 10), Value: 1.0})
	}
	// Late straggler into the first window.
	events = append(events, core.Event{Key: "k", Timestamp: 5, Value: 1.0})
	sink := buildWindowJob(t, events, NewTumbling(100), CountAggregate())
	for _, e := range sink.Events() {
		if e.Timestamp == 99 && e.Value.(int64) != 10 {
			t.Fatalf("first window should count 10 on-time events, got %v", e.Value)
		}
	}
}

func TestAllowedLatenessReemits(t *testing.T) {
	var events []core.Event
	for i := 0; i < 30; i++ {
		events = append(events, core.Event{Key: "k", Timestamp: int64(i * 10), Value: 1.0})
	}
	events = append(events, core.Event{Key: "k", Timestamp: 5, Value: 1.0})
	sink := buildWindowJob(t, events, NewTumbling(100), CountAggregate(), WithAllowedLateness(1_000_000))
	// The first window fires on time with 10, then re-fires with 11 when the
	// allowed-late straggler arrives.
	var firstWindow []int64
	for _, e := range sink.Events() {
		if e.Timestamp == 99 {
			firstWindow = append(firstWindow, e.Value.(int64))
		}
	}
	if len(firstWindow) != 2 || firstWindow[0] != 10 || firstWindow[1] != 11 {
		t.Fatalf("want on-time 10 then late update 11, got %v", firstWindow)
	}
}

func TestCountWindowInEngine(t *testing.T) {
	var events []core.Event
	for i := 0; i < 25; i++ {
		events = append(events, core.Event{Key: "k", Timestamp: int64(i), Value: 1.0})
	}
	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "cw"})
	s := b.Source("src", core.NewSliceSourceFactory(events)).
		KeyBy(func(e core.Event) string { return e.Key })
	CountWindow(s, "cw", 10, CountAggregate()).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatal(err)
	}
	// 25 events → two complete windows of 10 (the trailing 5 never fire).
	if sink.Len() != 2 {
		t.Fatalf("want 2 count windows, got %d", sink.Len())
	}
	for _, e := range sink.Events() {
		if e.Value.(int64) != 10 {
			t.Fatalf("count window: want 10, got %v", e.Value)
		}
	}
}

func TestGlobalWindowFiresAtEndOfStream(t *testing.T) {
	var events []core.Event
	for i := 0; i < 40; i++ {
		events = append(events, core.Event{Key: "k", Timestamp: int64(i), Value: 1.0})
	}
	sink := buildWindowJob(t, events, GlobalAssigner{}, CountAggregate())
	if sink.Len() != 1 {
		t.Fatalf("global window: want 1 result, got %d", sink.Len())
	}
	if got := sink.Events()[0].Value.(int64); got != 40 {
		t.Fatalf("global window count: want 40, got %d", got)
	}
}

// TestKernelFlushParity pins scalar↔vectorized parity including the
// end-of-stream Flush, over random batch splits whose lengths are not
// multiples of the window size — the shape that used to leave tail records
// silently retained in BatchTumbling.
func TestKernelFlushParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, fn := range []AggFn{Sum, Min, Max} {
		for _, size := range []int{3, 7, 64} {
			for trial := 0; trial < 20; trial++ {
				n := size*rng.Intn(10) + rng.Intn(2*size) + 1
				values := make([]float64, n)
				for i := range values {
					values[i] = rng.Float64() * 1000
				}
				scalar := NewScalarTumbling(size, fn)
				batch := NewBatchTumbling(size, fn)
				var rs, rb []float64
				// Feed identical data in different split points: one value
				// at a time vs random odd-sized chunks.
				for _, v := range values {
					rs = append(rs, scalar.Process([]float64{v})...)
				}
				for off := 0; off < n; {
					c := 1 + rng.Intn(size+3)
					if off+c > n {
						c = n - off
					}
					rb = append(rb, batch.Process(values[off:off+c])...)
					off += c
				}
				sv, sok := scalar.Flush()
				bv, bok := batch.Flush()
				if sok != bok {
					t.Fatalf("%s size=%d n=%d: flush presence differs: scalar=%v batch=%v",
						fn.Name, size, n, sok, bok)
				}
				if wantTail := n%size != 0; sok != wantTail {
					t.Fatalf("%s size=%d n=%d: flush=%v, want %v", fn.Name, size, n, sok, wantTail)
				}
				if sok {
					rs = append(rs, sv)
					rb = append(rb, bv)
				}
				if len(rs) != len(rb) {
					t.Fatalf("%s size=%d n=%d: window count differs: %d vs %d",
						fn.Name, size, n, len(rs), len(rb))
				}
				for i := range rs {
					if !almostEq(rs[i], rb[i]) {
						t.Fatalf("%s size=%d n=%d window %d: scalar=%v batch=%v",
							fn.Name, size, n, i, rs[i], rb[i])
					}
				}
			}
		}
	}
}

// TestKernelFlushIsIdempotent: a second Flush (or one after an exact
// multiple) must report nothing buffered.
func TestKernelFlushIsIdempotent(t *testing.T) {
	for _, k := range []TumblingKernel{NewScalarTumbling(4, Sum), NewBatchTumbling(4, Sum)} {
		k.Process([]float64{1, 2, 3, 4, 5})
		if _, ok := k.Flush(); !ok {
			t.Fatalf("%s: expected a trailing partial window", k.Name())
		}
		if _, ok := k.Flush(); ok {
			t.Fatalf("%s: second flush should be empty", k.Name())
		}
		k.Process([]float64{1, 2, 3, 4})
		if _, ok := k.Flush(); ok {
			t.Fatalf("%s: flush after exact multiple should be empty", k.Name())
		}
	}
}

// TestCountWindowEmitsTrueStart pins the count-window bound fix: the emitted
// window's Start must be the first buffered element's timestamp, not a
// fabricated 0.
func TestCountWindowEmitsTrueStart(t *testing.T) {
	// Timestamps deliberately start well above 0 so the old fabricated
	// Window{Start: 0} would be caught.
	var events []core.Event
	for i := 0; i < 12; i++ {
		events = append(events, core.Event{Key: "k", Timestamp: int64(1000 + 5*i), Value: 1.0})
	}
	// Surface the window bounds through a custom Emit: Value = [start, end, count].
	agg := Aggregate{
		Create: func() any { return int64(0) },
		Add:    func(acc any, _ core.Event) any { return acc.(int64) + 1 },
		Emit: func(key string, w Window, acc any) core.Event {
			return core.Event{Key: key, Timestamp: w.End - 1, Value: [3]int64{w.Start, w.End, acc.(int64)}}
		},
	}
	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "cw-start"})
	s := b.Source("src", core.NewSliceSourceFactory(events)).
		KeyBy(func(e core.Event) string { return e.Key })
	CountWindow(s, "cw", 5, agg).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 2 {
		t.Fatalf("want 2 count windows, got %d: %v", sink.Len(), sink.Events())
	}
	// First window buffers ts 1000..1020, second 1025..1045.
	want := [][3]int64{{1000, 1021, 5}, {1025, 1046, 5}}
	got := sink.Events()
	for i, w := range want {
		if got[i].Value.([3]int64) != w {
			t.Fatalf("window %d: want start/end/count %v, got %v", i, w, got[i].Value)
		}
	}
}

// perRecord hides an operator's ProcessBatch, so the runtime drives it
// through the per-record adapter.
type perRecord struct{ core.Operator }

// chunkSource emits events through CollectBatch, chunk records per call, so
// the exchange carries multi-record batches.
func chunkSource(events []core.Event, chunk int) core.SourceFactory {
	return core.SourceFunc(func(ctx core.SourceContext) error {
		for i := 0; i < len(events); i += chunk {
			if !ctx.CollectBatch(events[i:min(i+chunk, len(events))]) {
				return nil
			}
		}
		return nil
	})
}

// runBatchWindowJob runs a keyed window over events at the given batch
// capacity, through ProcessBatch or (wholeBatch false) the per-record
// adapter, and returns the output in arrival order.
func runBatchWindowJob(t *testing.T, events []core.Event, assigner Assigner, agg Aggregate, capacity int, wholeBatch bool, opts ...Option) []string {
	t.Helper()
	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "win-batch", WatermarkInterval: 64, MaxBatchSize: capacity})
	s := b.Source("src", chunkSource(events, 256), core.WithBoundedDisorder(0)).
		KeyBy(func(e core.Event) string { return e.Key })
	window := operatorFactory(assigner, agg, opts...)
	fac := window
	if !wholeBatch {
		fac = func() core.Operator { return perRecord{window()} }
	}
	s.Process("window", fac).Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range sink.Events() {
		out = append(out, fmt.Sprintf("%s@%d=%v", e.Key, e.Timestamp, e.Value))
	}
	return out
}

// TestColumnarWindowMatchesPerRecord runs the same windowed aggregations
// through the per-record adapter and through ProcessBatch at batch capacities
// 1 and 64, and requires the same output in the same order, bit for bit:
// covering the whole-batch fold (tumbling sums over non-integral values,
// which an unrolled kernel would re-associate, min, max and counts), the per-element
// fallback (sessions, sliding windows) and the late-but-allowed re-emit
// replay.
func TestColumnarWindowMatchesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var events []core.Event
	for i := 0; i < 1200; i++ {
		// Key runs of 16 records, so same-key, same-window segments are long
		// enough that a re-associating fold would change the result.
		events = append(events, core.Event{
			Key:       fmt.Sprintf("k%d", (i/16)%7),
			Timestamp: int64(i),
			Value:     0.1 * float64(rng.Intn(1000)),
		})
	}
	// A late-but-allowed straggler per key exercises the re-emit replay.
	for k := 0; k < 7; k++ {
		events = append(events, core.Event{Key: fmt.Sprintf("k%d", k), Timestamp: 5, Value: 0.1})
	}
	value := func(e core.Event) float64 { return e.Value.(float64) }
	cases := []struct {
		name     string
		assigner Assigner
		agg      Aggregate
		opts     []Option
	}{
		{"tumbling-sum", NewTumbling(100), FloatAggregate(Sum, value), nil},
		{"tumbling-value-min", NewTumbling(100), FloatAggregate(Min, value), nil},
		{"tumbling-value-max", NewTumbling(100), FloatAggregate(Max, value), nil},
		{"tumbling-count-lateness", NewTumbling(100), CountAggregate(), []Option{WithAllowedLateness(1_000_000)}},
		{"sliding-count", NewSliding(100, 50), CountAggregate(), nil},
		{"session-count", NewSession(40), CountAggregate(), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runBatchWindowJob(t, events, tc.assigner, tc.agg, 64, false, tc.opts...)
			if len(want) == 0 {
				t.Fatal("no output")
			}
			for _, capacity := range []int{1, 64} {
				got := runBatchWindowJob(t, events, tc.assigner, tc.agg, capacity, true, tc.opts...)
				if len(got) != len(want) {
					t.Fatalf("capacity %d: %d outputs, per-record %d", capacity, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("capacity %d: output %d is %s, per-record %s", capacity, i, got[i], want[i])
					}
				}
			}
		})
	}
}
