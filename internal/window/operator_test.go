package window

import (
	"fmt"
	"log"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// batchCtx is a core.BatchContext over one memory backend, for driving an
// operator's ProcessBatch without a job around it.
type batchCtx struct {
	b      *state.MemoryBackend
	key    string
	wm     int64
	timers int
	out    []core.Event
}

func (c *batchCtx) Emit(e core.Event)            { c.out = append(c.out, e) }
func (c *batchCtx) EmitBatch(es []core.Event)    { c.out = append(c.out, es...) }
func (c *batchCtx) Key() string                  { return c.key }
func (c *batchCtx) SetKey(key string)            { c.key = key }
func (c *batchCtx) RegisterEventTimeTimer(int64) { c.timers++ }
func (c *batchCtx) DeleteEventTimeTimer(int64)   {}
func (c *batchCtx) CurrentWatermark() int64      { return c.wm }
func (c *batchCtx) InstanceIndex() int           { return 0 }
func (c *batchCtx) Parallelism() int             { return 1 }
func (c *batchCtx) Logger() *log.Logger          { return nil }

func (c *batchCtx) State() state.Backend {
	c.b.SetCurrentKey(c.key)
	return c.b
}

// TestWindowBatchSteadyStateZeroAllocs folds batches of one-record key runs —
// window-uniform's shape — into warm tumbling sums on the memory backend and
// requires zero allocations per batch: the accumulator is a cell updated in
// place, so a record costs a state Get and neither a boxed float nor a Put. An
// allocation per record raises the GC heap goal with throughput and shows up
// as peak RSS.
func TestWindowBatchSteadyStateZeroAllocs(t *testing.T) {
	op := operatorFactory(NewTumbling(1_000),
		FloatAggregate(Sum, func(e core.Event) float64 { return e.Value.(float64) }))().(core.BatchOperator)
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	batch := make([]core.Event, 64)
	for i := range batch {
		// Values boxed once, outside the measured loop.
		batch[i] = core.Event{Key: keys[(i*7)%len(keys)], Timestamp: int64(10 * i), Value: 0.5 + float64(i)}
	}
	ctx := &batchCtx{b: state.NewMemoryBackend(0), wm: -1}
	process := func() {
		if err := op.ProcessBatch(batch, ctx); err != nil {
			t.Fatal(err)
		}
	}
	process() // create every key's window
	timers := ctx.timers
	if allocs := testing.AllocsPerRun(200, process); allocs != 0 {
		t.Fatalf("window batch path allocates %.1f times per batch of %d; want 0", allocs, len(batch))
	}
	if ctx.timers != timers || len(ctx.out) != 0 {
		t.Fatalf("warm windows registered %d timers and emitted %d results; want none", ctx.timers-timers, len(ctx.out))
	}

	// The sums were folded in place: firing one key's window reports every
	// batch's records — the first, AllocsPerRun's warm-up and its 200 runs.
	want := 0.0
	for range 202 {
		for i := range batch {
			if batch[i].Key == keys[0] {
				want += batch[i].Value.(float64)
			}
		}
	}
	ctx.SetKey(keys[0])
	ctx.State()
	if err := op.OnTimer(1_000, ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.out) != 1 || ctx.out[0].Value != want {
		t.Fatalf("fired %v, want one sum of %v", ctx.out, want)
	}
}

// TestWindowRewrapsRestoredCell: a restore yields an accumulator's plain
// scalar; the next record wraps it in a new cell and Puts it, so later
// records fold into state and the fire reports all of them.
func TestWindowRewrapsRestoredCell(t *testing.T) {
	for _, tc := range []struct {
		name string
		agg  Aggregate
		want any
	}{
		{"float", FloatAggregate(Sum, func(e core.Event) float64 { return e.Value.(float64) }), 3 * 1.5},
		{"count", CountAggregate(), int64(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := operatorFactory(NewTumbling(100), tc.agg)().(core.BatchOperator)
			b := state.NewMemoryBackend(0)
			ctx := &batchCtx{b: b, wm: -1}
			batch := []core.Event{{Key: "k", Timestamp: 1, Value: 1.5}}
			process := func() {
				if err := op.ProcessBatch(batch, ctx); err != nil {
					t.Fatal(err)
				}
			}
			process()
			snap, err := b.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			ctx.SetKey("k")
			if v, _ := ctx.State().Map(winState).Get(endKey(100)); state.IsCell(v) {
				t.Fatalf("restored accumulator is %T, want its plain scalar", v)
			}
			process()
			if v, _ := ctx.State().Map(winState).Get(endKey(100)); !state.IsCell(v) {
				t.Fatalf("accumulator after a record is %T, want a cell", v)
			}
			process()
			if err := op.OnTimer(100, ctx); err != nil {
				t.Fatal(err)
			}
			if len(ctx.out) != 1 || ctx.out[0].Value != tc.want {
				t.Fatalf("fired %v, want one result of %v", ctx.out, tc.want)
			}
		})
	}
}

// TestWindowFireSteadyStateZeroAllocs fires warm tumbling sums on the memory
// backend, window after window, over the same keys, each key's next window
// already open when its last one fires (as under a lagging watermark): once
// warm, a fire allocates only the box Emit makes for each result. The fired
// key's state row stays in place and its next window reuses it.
func TestWindowFireSteadyStateZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const size, windows, warm = 1_000, 40, 8
	op := operatorFactory(NewTumbling(size),
		FloatAggregate(Sum, func(e core.Event) float64 { return e.Value.(float64) }))().(core.BatchOperator)
	keys := make([]string, 64)
	batch := make([]core.Event, 2*len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for i := range batch {
		batch[i] = core.Event{Key: keys[i%len(keys)], Value: 1.0}
	}
	ctx := &batchCtx{b: state.NewMemoryBackend(0), wm: -1}
	ctx.out = make([]core.Event, 0, len(keys))
	fill := func(w int64) {
		for i := range batch {
			batch[i].Timestamp = w*size + int64(i)
		}
		if err := op.ProcessBatch(batch, ctx); err != nil {
			t.Fatal(err)
		}
	}
	var fireAllocs uint64
	var ms runtime.MemStats
	fill(0)
	for w := int64(0); w < windows; w++ {
		fill(w + 1)
		ctx.out = ctx.out[:0]
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, k := range keys {
			ctx.SetKey(k)
			ctx.State()
			if err := op.OnTimer((w+1)*size, ctx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		if w >= warm {
			fireAllocs += ms.Mallocs - before
		}
		if len(ctx.out) != len(keys) || ctx.out[0].Value != 2.0 {
			t.Fatalf("window %d fired %d results; want %d sums of 2", w, len(ctx.out), len(keys))
		}
	}
	// One box per result, and the firing window's state key, formatted once
	// per fire (cachedStateKey last held the next window's).
	if per, want := float64(fireAllocs)/(windows-warm), float64(len(keys)+1); per > want {
		t.Fatalf("a warm fire of %d results allocates %.1f times; want at most %.0f", len(keys), per, want)
	}
}
