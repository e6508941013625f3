package queryable

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/state"
)

// countUpdate counts records per key in value state "n".
func countUpdate(_ core.Event, ctx core.Context) {
	st := ctx.State().Value("n")
	n := int64(0)
	if v, ok := st.Get(); ok {
		n = v.(int64)
	}
	st.Set(n + 1)
}

// batchCtx is the part of core.BatchContext a publishing operator uses,
// over a real memory backend.
type batchCtx struct {
	core.BatchContext
	b        state.Backend
	key      string
	idx, par int
}

func (c *batchCtx) SetKey(k string)         { c.key = k }
func (c *batchCtx) Key() string             { return c.key }
func (c *batchCtx) State() state.Backend    { c.b.SetCurrentKey(c.key); return c.b }
func (c *batchCtx) InstanceIndex() int      { return c.idx }
func (c *batchCtx) Parallelism() int        { return c.par }
func (c *batchCtx) CurrentWatermark() int64 { return 0 }

// openOp builds and opens instance idx of par of a publishing operator.
func openOp(t *testing.T, pub *publication, idx, par int) (*publishOp, *batchCtx) {
	t.Helper()
	op := &publishOp{pub: pub}
	ctx := &batchCtx{b: state.NewMemoryBackend(state.DefaultKeyGroups), idx: idx, par: par}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	return op, ctx
}

// A batch's updates become visible together: while the batch is in flight —
// here, from inside the user's update, which must not run under the shard's
// lock or this read would deadlock — a reader sees the table as the previous
// batch left it.
func TestServiceReaderNeverSeesPartOfBatch(t *testing.T) {
	svc := NewService()
	if _, ok := svc.Get("t", "a"); ok {
		t.Fatal("phantom table")
	}
	var during []string
	update := func(e core.Event, ctx core.Context) {
		countUpdate(e, ctx)
		a, okA := svc.Get("t", "a")
		_, okB := svc.Get("t", "b")
		during = append(during, fmt.Sprintf("%v/%v/%v", a, okA, okB))
	}
	op, ctx := openOp(t, &publication{svc: svc, table: "t", stateName: "n", update: update}, 0, 1)
	if err := op.ProcessBatch([]core.Event{{Key: "a"}}, ctx); err != nil {
		t.Fatal(err)
	}
	if v, ok := svc.Get("t", "a"); !ok || v.(int64) != 1 {
		t.Fatalf("after first batch: %v %v", v, ok)
	}
	during = nil
	if err := op.ProcessBatch([]core.Event{{Key: "a"}, {Key: "b"}, {Key: "a"}}, ctx); err != nil {
		t.Fatal(err)
	}
	for i, d := range during {
		if d != "1/true/false" {
			t.Fatalf("record %d of the batch: reader saw a=%s (want the previous batch's 1/true/false)", i, d)
		}
	}
	if v, ok := svc.Get("t", "a"); !ok || v.(int64) != 3 {
		t.Fatalf("after second batch: a = %v %v", v, ok)
	}
	if v, ok := svc.Get("t", "b"); !ok || v.(int64) != 1 {
		t.Fatalf("after second batch: b = %v %v", v, ok)
	}
	if _, ok := svc.Get("t", "missing"); ok {
		t.Fatal("phantom key")
	}
	if keys := svc.Keys("t"); fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("keys = %v", keys)
	}
}

// A new incarnation replaces the table when its first instance opens: until
// the instance owning a key has opened, the key reads as not found rather
// than as the previous incarnation's value. Open fills the shard from the
// instance's restored state.
func TestServiceNewIncarnationReplacesTable(t *testing.T) {
	svc := NewService()
	old := &publication{svc: svc, table: "t", stateName: "n", update: countUpdate}
	var keys [2]string // one key owned by each of two instances
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		g := state.KeyGroupFor(k, state.DefaultKeyGroups)
		for idx := 0; idx < 2; idx++ {
			if s, e := state.GroupRange(state.DefaultKeyGroups, 2, idx); g >= s && g < e && keys[idx] == "" {
				keys[idx] = k
			}
		}
	}
	for idx := 0; idx < 2; idx++ {
		op, ctx := openOp(t, old, idx, 2)
		if err := op.ProcessBatch([]core.Event{{Key: keys[idx]}}, ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Keys("t"); len(got) != 2 {
		t.Fatalf("keys = %v", got)
	}

	// Instance 0 of the next incarnation opens with restored state; instance 1
	// has not opened yet.
	next := *old
	op := &publishOp{pub: &next}
	b := state.NewMemoryBackend(state.DefaultKeyGroups)
	b.SetCurrentKey(keys[0])
	b.Value("n").Set(int64(7))
	if err := op.Open(&batchCtx{b: b, idx: 0, par: 2}); err != nil {
		t.Fatal(err)
	}
	if v, ok := svc.Get("t", keys[0]); !ok || v.(int64) != 7 {
		t.Fatalf("restored key %s = %v %v, want 7", keys[0], v, ok)
	}
	if v, ok := svc.Get("t", keys[1]); ok {
		t.Fatalf("key %s of an unopened instance read as %v", keys[1], v)
	}
	if got := svc.Keys("t"); len(got) != 1 || got[0] != keys[0] {
		t.Fatalf("keys = %v", got)
	}
}

// runCounting runs a keyed counting pipeline at parallelism par that
// publishes into svc, and returns the reference count per key.
func runCounting(t *testing.T, svc *Service, par, n, keys int) map[string]int64 {
	t.Helper()
	want := map[string]int64{}
	events := make([]core.Event, n)
	for i := range events {
		k := fmt.Sprintf("k%d", i%keys)
		events[i] = core.Event{Key: k, Timestamp: int64(i), Value: int64(1)}
		want[k]++
	}
	b := core.NewBuilder(core.Config{Name: "qs", WatermarkInterval: 16, DefaultParallelism: par, MaxBatchSize: 16})
	s := b.Source("src", core.NewSliceSourceFactory(events), core.WithBoundedDisorder(0)).
		KeyBy(func(e core.Event) string { return e.Key })
	PublishOperator(s, "count", svc, "counts", "n", countUpdate).Sink("out", core.NewCollectSink().Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestQueryableStateFromPipeline(t *testing.T) {
	svc := NewService()
	runCounting(t, svc, 1, 300, 3)
	total := int64(0)
	for i := 0; i < 3; i++ {
		v, found := svc.Get("counts", fmt.Sprintf("k%d", i))
		if !found {
			t.Fatalf("key k%d not published", i)
		}
		total += v.(int64)
	}
	if total != 300 {
		t.Fatalf("queryable counts: want 300 total, got %d", total)
	}
}

// Every instance's keys are served, each with its reference count, and
// `keys` and `get` still answer once Job.Run has returned.
func TestQueryableEveryKeyAtParallelism(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			svc := NewService()
			want := runCounting(t, svc, par, 2000, 64)
			if got := svc.Keys("counts"); len(got) != len(want) {
				t.Fatalf("Keys served %d of %d keys", len(got), len(want))
			}
			for k, n := range want {
				if v, ok := svc.Get("counts", k); !ok || v.(int64) != n {
					t.Fatalf("Get(%s) = %v %v, want %d", k, v, ok, n)
				}
			}
			if tables := svc.Tables(); len(tables) != 1 || tables[0] != "counts" {
				t.Fatalf("tables = %v", tables)
			}
		})
	}
}

// A record's update is visible once its batch has been processed: no
// watermark has to pass first. The source collects its records and then
// waits, so no watermark follows them until the test lets it finish.
func TestQueryableGetSeesRecordWithoutWatermark(t *testing.T) {
	svc := NewService()
	resume := make(chan struct{})
	events := []core.Event{{Key: "a", Timestamp: 1}, {Key: "b", Timestamp: 2}, {Key: "a", Timestamp: 3}}
	b := core.NewBuilder(core.Config{Name: "qs-nowm", WatermarkInterval: 1 << 20, DefaultParallelism: 2})
	s := b.Source("src", core.SourceFunc(func(ctx core.SourceContext) error {
		if ctx.InstanceIndex() == 0 && !ctx.CollectBatch(events) {
			return nil
		}
		<-resume
		return nil
	}), core.WithBoundedDisorder(0)).KeyBy(func(e core.Event) string { return e.Key })
	PublishOperator(s, "count", svc, "counts", "n", countUpdate)
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- j.Run(context.Background()) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		a, okA := svc.Get("counts", "a")
		bv, okB := svc.Get("counts", "b")
		if okA && okB && a.(int64) == 2 && bv.(int64) == 1 {
			break
		}
		if time.Now().After(deadline) {
			close(resume)
			<-done
			t.Fatalf("records without a watermark since: a=%v/%v b=%v/%v", a, okA, bv, okB)
		}
		time.Sleep(time.Millisecond)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
