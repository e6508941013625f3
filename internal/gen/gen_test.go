package gen

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSpecDeterministic(t *testing.T) {
	spec := Spec{N: 100, Keys: 8, Seed: 42}.withDefaults()
	for i := int64(0); i < 100; i++ {
		a := spec.At(i)
		b := spec.At(i)
		if a.Key != b.Key || a.Timestamp != b.Timestamp || a.Value != b.Value {
			t.Fatalf("event %d not deterministic: %v vs %v", i, a, b)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	events := Events(Spec{N: 20000, Keys: 100, ZipfS: 1.5, Seed: 1})
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Key]++
	}
	// The hottest key must dominate: zipf s=1.5 gives rank-1 a large share.
	if counts["k0"] < len(events)/4 {
		t.Fatalf("zipf skew absent: k0 has %d of %d", counts["k0"], len(events))
	}
}

func TestUniformKeysCoverSpace(t *testing.T) {
	events := Events(Spec{N: 5000, Keys: 10, Seed: 2})
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Key]++
	}
	if len(counts) != 10 {
		t.Fatalf("want 10 keys, got %d", len(counts))
	}
	for k, c := range counts {
		if c < 300 || c > 700 {
			t.Fatalf("uniform distribution off for %s: %d", k, c)
		}
	}
}

func TestDisorderBounded(t *testing.T) {
	spec := Spec{N: 1000, IntervalMs: 10, DisorderMs: 200, Seed: 3}
	events := Events(spec)
	disordered := 0
	for i := 1; i < len(events); i++ {
		if events[i].Timestamp < events[i-1].Timestamp {
			disordered++
			if d := events[i-1].Timestamp - events[i].Timestamp; d > 200+10 {
				t.Fatalf("disorder exceeds bound: %d", d)
			}
		}
	}
	if disordered == 0 {
		t.Fatal("no disorder injected")
	}
}

func TestGeneratedSourceReplayable(t *testing.T) {
	// Run with checkpoints, savepoint-stop, resume: exact once across the
	// generated source.
	spec := Spec{N: 400, Keys: 4, Seed: 9}
	store := core.NewMemorySnapshotStore()

	var jobRef *core.Job
	run := func(restore int64, withTrigger bool) *core.CollectSink {
		sink := core.NewCollectSink()
		b := core.NewBuilder(core.Config{Name: "gen", SnapshotStore: store})
		src := SourceFactory(spec)
		if withTrigger {
			src = savepointAfter(src, 150, &jobRef)
		}
		b.Source("src", src).
			Map("mid", func(e core.Event) (core.Event, bool) { return e, true }).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		jobRef = j
		if restore >= 0 {
			j.RestoreFrom(restore)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := j.Run(ctx); err != nil {
			t.Fatal(err)
		}
		return sink
	}

	first := run(-1, true)
	cp := jobRef.LastCheckpoint()
	if cp < 0 {
		t.Fatal("no savepoint")
	}
	second := run(cp, false)
	if first.Len()+second.Len() != spec.N {
		t.Fatalf("replay lost/duplicated: %d + %d != %d", first.Len(), second.Len(), spec.N)
	}
}

// savepointAfter wraps a replayable source so that each instance calls
// TriggerSavepoint from its own goroutine right after its n-th record: the
// barrier lands right before the instance's next record however the rest
// of the job is scheduled.
func savepointAfter(f core.SourceFactory, n int, job **core.Job) core.SourceFactory {
	return func(instance, par int) core.Source {
		return &savepointSource{ReplayableSource: f(instance, par).(core.ReplayableSource), n: n, job: job}
	}
}

type savepointSource struct {
	core.ReplayableSource
	n   int
	job **core.Job
}

func (s *savepointSource) Run(ctx core.SourceContext) error {
	return s.ReplayableSource.Run(&savepointCtx{SourceContext: ctx, s: s})
}

// savepointCtx counts the records its source collects.
type savepointCtx struct {
	core.SourceContext
	s    *savepointSource
	seen int
}

func (c *savepointCtx) Collect(e core.Event) bool { return c.CollectBatch([]core.Event{e}) }

func (c *savepointCtx) CollectBatch(events []core.Event) bool {
	if !c.SourceContext.CollectBatch(events) {
		return false
	}
	if c.seen < c.s.n && c.seen+len(events) >= c.s.n {
		(*c.s.job).TriggerSavepoint()
	}
	c.seen += len(events)
	return true
}

func TestDomainSpecs(t *testing.T) {
	for name, spec := range map[string]Spec{
		"fraud":  FraudSpec(500, 20, 0.05, 1),
		"trips":  TripSpec(500, 50, 20, 2),
		"flows":  FlowSpec(500, 100, 3),
		"sensor": SensorSpec(500, 10, 4),
		"words":  WordSpec(500, 5),
	} {
		events := Events(spec)
		if len(events) != 500 {
			t.Fatalf("%s: want 500 events, got %d", name, len(events))
		}
		for _, e := range events[:10] {
			if e.Value == nil {
				t.Fatalf("%s: nil payload", name)
			}
		}
	}
	// Fraud ground truth present at roughly the configured rate.
	frauds := 0
	for _, e := range Events(FraudSpec(10000, 20, 0.05, 1)) {
		if e.Value.(Transaction).Fraudulent {
			frauds++
		}
	}
	if frauds < 300 || frauds > 800 {
		t.Fatalf("fraud rate off: %d/10000", frauds)
	}
}
