package window

import (
	"fmt"
	"log"
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
