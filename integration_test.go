package repro

// Cross-module integration tests: whole jobs exercising several subsystems
// together — the scenarios a downstream user of the library would actually
// build.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/gen"
	"repro/internal/ml"
	"repro/internal/queryable"
	"repro/internal/state"
	"repro/internal/window"
)

func runWithTimeout(t *testing.T, j *core.Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := j.Run(ctx); err != nil {
		t.Fatalf("job failed: %v", err)
	}
}

// TestWindowedPipelineSurvivesRestore runs a windowed aggregation with
// checkpoints, stops at a savepoint, restores, and verifies the window
// results equal an uninterrupted run — windows + managed state + barriers +
// replayable generated source, together.
func TestWindowedPipelineSurvivesRestore(t *testing.T) {
	spec := gen.Spec{N: 3_000, Keys: 8, IntervalMs: 10, Seed: 21}
	store := core.NewMemorySnapshotStore()

	build := func(stopAt int, jobRef **core.Job, sink *core.CollectSink) *core.Job {
		b := core.NewBuilder(core.Config{
			Name:              "win-restore",
			SnapshotStore:     store,
			WatermarkInterval: 8,
		})
		src := gen.SourceFactory(spec)
		if stopAt > 0 {
			src = savepointAfter(src, stopAt, jobRef)
		}
		keyed := b.Source("src", src, core.WithBoundedDisorder(0)).
			Map("mid", func(e core.Event) (core.Event, bool) { return e, true }).
			KeyBy(func(e core.Event) string { return e.Key })
		window.Apply(keyed, "count", window.NewTumbling(1_000), window.CountAggregate()).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Reference: clean run.
	ref := core.NewCollectSink()
	runWithTimeout(t, build(0, nil, ref))

	// Interrupted run + restore.
	var j1 *core.Job
	part1 := core.NewCollectSink()
	j1 = build(1_000, &j1, part1)
	runWithTimeout(t, j1)
	cp := j1.LastCheckpoint()
	if cp < 0 {
		t.Fatal("no savepoint completed")
	}
	part2 := core.NewCollectSink()
	j2 := build(0, nil, part2)
	j2.RestoreFrom(cp)
	runWithTimeout(t, j2)

	sum := func(evs []core.Event) map[string]int64 {
		out := map[string]int64{}
		for _, e := range evs {
			out[fmt.Sprintf("%s@%d", e.Key, e.Timestamp)] += e.Value.(int64)
		}
		return out
	}
	want := sum(ref.Events())
	got := sum(append(part1.Events(), part2.Events()...))
	if len(want) != len(got) {
		t.Fatalf("window result count differs: clean=%d restored=%d", len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("window %s: clean=%d restored=%d", k, v, got[k])
		}
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

// TestCQLOperatorInsideEngine runs a CQL aggregation as a dataflow operator
// over a generated trade stream.
func TestCQLOperatorInsideEngine(t *testing.T) {
	var events []core.Event
	for i := 0; i < 300; i++ {
		events = append(events, core.Event{
			Timestamp: int64(i * 10),
			Value: cql.Row{
				"symbol": []string{"AAA", "BBB"}[i%2],
				"price":  float64(100 + i%7),
			},
		})
	}
	sink := core.NewCollectSink()
	b := core.NewBuilder(core.Config{Name: "cql-engine"})
	s := b.Source("trades", core.NewSliceSourceFactory(events))
	cql.Operator(s, "avg", "RSTREAM (SELECT symbol, AVG(price) AS avgp FROM trades [ROWS 50] GROUP BY symbol)",
		"trades", func(e core.Event) (cql.Row, bool) {
			r, ok := e.Value.(cql.Row)
			return r, ok
		}).
		Sink("out", sink.Factory())
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runWithTimeout(t, j)
	if sink.Len() == 0 {
		t.Fatal("no CQL output")
	}
	// Every emitted row must carry a plausible running average.
	for _, e := range sink.Events() {
		row := e.Value.(cql.Row)
		avg := row["avgp"].(float64)
		if avg < 100 || avg > 107 {
			t.Fatalf("implausible average: %v", row)
		}
	}
}

// TestFraudPipelineEndToEnd wires generator -> CEP -> alerts and
// generator -> features -> online model -> predictions, in one job, with an
// LSM state backend under the CEP operator — three subsystems composed.
func TestFraudPipelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := gen.FraudSpec(4_000, 20, 0.05, 3)
	registry := ml.NewRegistry()
	alerts := core.NewCollectSink()
	scores := core.NewCollectSink()

	b := core.NewBuilder(core.Config{
		Name: "fraud-e2e",
		BackendFactory: func(node string, instance int) (state.Backend, error) {
			return state.NewLSMBackend(fmt.Sprintf("%s/%s-%d", dir, node, instance), 0)
		},
	})
	txns := b.Source("txns", gen.SourceFactory(spec), core.WithBoundedDisorder(0))

	small := func(e core.Event) bool { return e.Value.(gen.Transaction).Amount < 100 }
	large := func(e core.Event) bool { return e.Value.(gen.Transaction).Amount >= 500 }
	pattern := cep.Begin("p1", small).FollowedBy("p2", small).
		FollowedBy("hit", large).Within(60_000).MustBuild()
	keyed := txns.KeyBy(func(e core.Event) string { return e.Value.(gen.Transaction).Card })
	cep.PatternStream(keyed, "pattern", pattern, func(card string, m cep.Match, emit func(core.Event)) {
		emit(core.Event{Key: card, Timestamp: m.End, Value: "alert"})
	}, cep.SkipPastLastEvent()).Sink("alerts", alerts.Factory())

	samples := txns.Map("featurize", func(e core.Event) (core.Event, bool) {
		tx := e.Value.(gen.Transaction)
		label := 0.0
		if tx.Fraudulent {
			label = 1
		}
		e.Value = ml.Sample{Features: []float64{tx.Amount / 1000}, Label: label}
		return e, true
	})
	ml.TrainOperator(samples, "train", ml.NewLogisticRegression(1), registry, 0.2, 500).
		Sink("pub", core.NewCollectSink().Factory())
	ml.ServeOperator(samples, "serve", registry).Sink("scores", scores.Factory())

	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runWithTimeout(t, j)

	if alerts.Len() == 0 {
		t.Fatal("no CEP alerts on a stream with injected fraud")
	}
	if registry.NumVersions() < 4 {
		t.Fatalf("too few model versions: %d", registry.NumVersions())
	}
	// Late predictions (trained model) should separate fraud from normal.
	var fraudScore, normalScore float64
	var fraudN, normalN int
	truth := map[int64]bool{}
	for i := int64(0); i < int64(spec.N); i++ {
		e := spec.At(i)
		truth[e.Timestamp] = e.Value.(gen.Transaction).Fraudulent
	}
	events := scores.Events()
	for _, e := range events[len(events)/2:] { // second half: model warmed up
		p := e.Value.(ml.Prediction)
		if truth[e.Timestamp] {
			fraudScore += p.Score
			fraudN++
		} else {
			normalScore += p.Score
			normalN++
		}
	}
	if fraudN == 0 || normalN == 0 {
		t.Fatal("missing classes in scored stream")
	}
	if fraudScore/float64(fraudN) <= normalScore/float64(normalN) {
		t.Fatalf("model does not separate: fraud avg %.3f vs normal avg %.3f",
			fraudScore/float64(fraudN), normalScore/float64(normalN))
	}
}

// TestQueryableStateAcrossRescale publishes pipeline state, rescales the
// publishing operator through savepoints, 1 -> 3 -> 2 instances, and checks
// after every incarnation that every key is served, ending with exactly the
// reference count per key — state migration + queryable state composed.
func TestQueryableStateAcrossRescale(t *testing.T) {
	const events, keys = 2_000, 13
	evs := make([]core.Event, events)
	want := map[string]int64{}
	for i := range evs {
		k := fmt.Sprintf("k%d", i%keys)
		evs[i] = core.Event{Key: k, Timestamp: int64(i), Value: int64(1)}
		want[k]++
	}
	store := core.NewMemorySnapshotStore()
	svc := queryable.NewService()

	build := func(par int, stopAt int, jobRef **core.Job) *core.Job {
		b := core.NewBuilder(core.Config{Name: "qrescale", SnapshotStore: store,
			WatermarkInterval: 16, DefaultParallelism: par})
		src := core.NewSliceSourceFactory(evs)
		if stopAt > 0 {
			src = savepointAfter(src, stopAt, jobRef)
		}
		keyed := b.Source("src", src, core.WithParallelism(1), core.WithBoundedDisorder(0)).
			ProcessWith("mid", core.MapFunc(func(e core.Event, ctx core.Context) error {
				ctx.Emit(e)
				return nil
			}), 1).
			KeyBy(func(e core.Event) string { return e.Key })
		str := queryable.PublishOperator(keyed, "count", svc, "counts", "n",
			func(e core.Event, ctx core.Context) {
				st := ctx.State().Value("n")
				cur := int64(0)
				if v, ok := st.Get(); ok {
					cur = v.(int64)
				}
				st.Set(cur + 1)
			})
		str.Sink("out", core.NewCollectSink().Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// served checks that every key is served and returns the served total.
	served := func(stage string) int64 {
		t.Helper()
		got := svc.Keys("counts")
		if len(got) != keys {
			t.Fatalf("%s: %d of %d keys served: %v", stage, len(got), keys, got)
		}
		total := int64(0)
		for _, k := range got {
			v, ok := svc.Get("counts", k)
			if !ok {
				t.Fatalf("%s: key %s listed but not found", stage, k)
			}
			total += v.(int64)
		}
		return total
	}
	rescale := func(j *core.Job, par int) int64 {
		t.Helper()
		cp := j.LastCheckpoint()
		if cp < 0 || !j.SavepointStopped() {
			t.Fatalf("no savepoint stop (checkpoint %d)", cp)
		}
		if _, err := core.RescaleCheckpoint(store, cp, cp+100, "count", par, state.DefaultKeyGroups); err != nil {
			t.Fatal(err)
		}
		return cp + 100
	}

	var j1 *core.Job
	j1 = build(1, 800, &j1)
	runWithTimeout(t, j1)
	after1 := served("par 1")
	var j2 *core.Job
	j2 = build(3, 600, &j2)
	j2.RestoreFrom(rescale(j1, 3))
	runWithTimeout(t, j2)
	after2 := served("par 3")
	j3 := build(2, 0, nil)
	j3.RestoreFrom(rescale(j2, 2))
	runWithTimeout(t, j3)
	served("par 2")

	if after1 < 800 || after2 < after1+600 || after2 >= events {
		t.Fatalf("served totals at the savepoints: %d then %d of %d", after1, after2, events)
	}
	for k, n := range want {
		if v, ok := svc.Get("counts", k); !ok || v.(int64) != n {
			t.Fatalf("queryable count of %s after 1 -> 3 -> 2: %v %v, want %d", k, v, ok, n)
		}
	}
}
