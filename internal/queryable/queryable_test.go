package queryable

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func TestServiceSnapshotIsolation(t *testing.T) {
	svc := NewService()
	src := map[string]any{"a": int64(1)}
	svc.PublishSnapshot("t", src)
	// Mutating the source map must not affect the published snapshot.
	src["a"] = int64(99)
	v, ok := svc.Get("t", "a")
	if !ok || v.(int64) != 1 {
		t.Fatalf("snapshot not isolated: %v %v", v, ok)
	}
	// Missing table/key.
	if _, ok := svc.Get("missing", "a"); ok {
		t.Fatal("phantom table")
	}
	if _, ok := svc.Get("t", "missing"); ok {
		t.Fatal("phantom key")
	}
}

func TestQueryableStateFromPipeline(t *testing.T) {
	// A keyed counting pipeline publishes its state; a reader of the service
	// sees consistent per-key counts.
	var events []core.Event
	for i := 0; i < 300; i++ {
		events = append(events, core.Event{
			Key:       fmt.Sprintf("k%d", i%3),
			Timestamp: int64(i * 10),
			Value:     int64(1),
		})
	}

	svc := NewService()
	b := core.NewBuilder(core.Config{Name: "qs", WatermarkInterval: 16})
	s := b.Source("src", core.NewSliceSourceFactory(events), core.WithBoundedDisorder(0)).
		KeyBy(func(e core.Event) string { return e.Key })
	PublishOperator(s, "count", svc, "counts", "n", func(e core.Event, ctx core.Context) {
		st := ctx.State().Value("n")
		n := int64(0)
		if v, ok := st.Get(); ok {
			n = v.(int64)
		}
		st.Set(n + 1)
	}).Sink("out", core.NewCollectSink().Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatal(err)
	}

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
