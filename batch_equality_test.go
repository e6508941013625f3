package repro

// The record path's batch-boundary properties. Records always travel in
// pooled batches and run through ProcessBatch wherever an operator has one,
// and a batch ships when it is full, before a control message, or when its
// sender runs out of input — so where batches are cut depends on the batch
// capacity and on scheduling. Output must depend on neither:
// TestBatchedOutputEqualityMatrix holds the output at batch capacities 1, 7
// and 64 byte-identical, per-key order included, and
// TestColumnarOutputEqualityMatrix holds the whole-batch output to a
// sequential reference evaluation. Both run with checkpoint barriers flowing
// mid-stream, so aligned-mode stashes carry batches.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cep"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/gen"
	"repro/internal/window"
)

// multiset folds sink output into comparable key→count form.
func multiset(evs []core.Event) map[string]int {
	out := map[string]int{}
	for _, e := range evs {
		out[fmt.Sprintf("%s@%d=%v", e.Key, e.Timestamp, e.Value)]++
	}
	return out
}

func requireEqualOutput(t *testing.T, label string, want, got map[string]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: distinct outputs differ: want %d, got %d", label, len(want), len(got))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: output %q: want ×%d, got ×%d", label, k, n, got[k])
		}
	}
}

// perKey splits sink output into one sequence per key, in arrival order. A
// key's records travel one path through the job, so this order is part of
// the output; the interleaving of different keys at the sink is not.
func perKey(evs []core.Event) map[string][]string {
	out := map[string][]string{}
	for _, e := range evs {
		out[e.Key] = append(out[e.Key], fmt.Sprintf("%d=%v", e.Timestamp, e.Value))
	}
	return out
}

// chunkSource emits events through CollectBatch, chunk records per call, so
// the source edge carries multi-record batches.
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

// pipelineRun runs one pipeline at a batch capacity and operator parallelism
// and returns what its sink received. Sources run at parallelism 1, so a
// key's input order is fixed.
type pipelineRun func(t *testing.T, capacity, par int) []core.Event

// batchConfig is the shared job configuration: checkpoints every 500 source
// records and small channels, so barriers align mid-stream.
func batchConfig(name string, capacity, par int) core.Config {
	return core.Config{
		Name:               name,
		MaxBatchSize:       capacity,
		SnapshotStore:      core.NewMemorySnapshotStore(),
		CheckpointEvery:    500,
		ChannelCapacity:    8,
		WatermarkInterval:  16,
		DefaultParallelism: par,
	}
}

func runJob(t *testing.T, b *core.Builder) {
	t.Helper()
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	runWithTimeout(t, j)
}

// lateSumEvents is an out-of-order stream of non-integral values in key runs
// of 8: disorder up to 500 ms against a 100 ms watermark bound makes records
// late, and same-key segments are long enough that a re-associating sum
// kernel would change the result.
func lateSumEvents() []core.Event {
	evs := gen.Events(gen.Spec{N: 4_000, Keys: 16, IntervalMs: 10, DisorderMs: 500, Seed: 5})
	for i := range evs {
		evs[i].Key = fmt.Sprintf("k%d", (i/8)%16)
		evs[i].Value = 0.1 * float64(i%97)
	}
	return evs
}

// runLateSum runs a keyed tumbling sum with allowed lateness: records later
// than 150 ms past their window's end are dropped, the rest re-emit the
// updated window.
func runLateSum(t *testing.T, capacity, par int) []core.Event {
	t.Helper()
	sink := core.NewCollectSink()
	b := core.NewBuilder(batchConfig("eq-late-sum", capacity, par))
	s := b.Source("src", chunkSource(lateSumEvents(), 100), core.WithBoundedDisorder(100), core.WithParallelism(1)).
		KeyBy(func(e core.Event) string { return e.Key })
	window.Apply(s, "win", window.NewTumbling(1_000), window.FloatAggregate(window.Sum, func(e core.Event) float64 { return e.Value.(float64) }), window.WithAllowedLateness(150)).
		Sink("out", sink.Factory())
	runJob(t, b)
	return sink.Events()
}

// fraudPattern is the CEP pipelines' pattern: two small transactions
// followed by a large one within a minute.
func fraudPattern() cep.Pattern {
	small := func(e core.Event) bool { return e.Value.(gen.Transaction).Amount < 100 }
	large := func(e core.Event) bool { return e.Value.(gen.Transaction).Amount >= 500 }
	return cep.Begin("p1", small).FollowedBy("p2", small).
		FollowedBy("hit", large).Within(60_000).MustBuild()
}

func fraudEvents() []core.Event { return gen.Events(gen.FraudSpec(3_000, 20, 0.05, 3)) }

// runCEP runs the fraud pattern over a generated transaction stream, the
// pattern operator at the matrix parallelism.
func runCEP(t *testing.T, capacity, par int) []core.Event {
	t.Helper()
	alerts := core.NewCollectSink()
	b := core.NewBuilder(batchConfig("eq-cep", capacity, par))
	txns := b.Source("txns", chunkSource(fraudEvents(), 100), core.WithBoundedDisorder(0), core.WithParallelism(1))
	keyed := txns.KeyBy(func(e core.Event) string { return e.Value.(gen.Transaction).Card })
	cep.PatternStream(keyed, "pattern", fraudPattern(), func(card string, m cep.Match, emit func(core.Event)) {
		emit(core.Event{Key: card, Timestamp: m.End, Value: "alert"})
	}, cep.SkipPastLastEvent()).Sink("alerts", alerts.Factory())
	runJob(t, b)
	return alerts.Events()
}

// runCQL runs a continuous GROUP BY over the late-sum stream. The query
// operator runs at parallelism 1 (its input order is its semantics); its
// deltas fan out by group over the matrix parallelism.
func runCQL(t *testing.T, capacity, par int) []core.Event {
	t.Helper()
	sink := core.NewCollectSink()
	b := core.NewBuilder(batchConfig("eq-cql", capacity, par))
	src := b.Source("ev", chunkSource(lateSumEvents(), 100), core.WithBoundedDisorder(100), core.WithParallelism(1))
	cql.Operator(src, "agg", "ISTREAM (SELECT k, SUM(v) AS s, COUNT(*) AS n FROM ev [RANGE 1000] GROUP BY k)",
		"ev", func(e core.Event) (cql.Row, bool) {
			return cql.Row{"k": e.Key, "v": e.Value}, true
		}).
		ProcessWith("sign", core.MapFunc(func(e core.Event, ctx core.Context) error {
			row := e.Value.(cql.Row)
			ctx.Emit(core.Event{Key: row["k"].(string), Timestamp: e.Timestamp, Value: e.Key + fmt.Sprint(row)})
			return nil
		}), 1).
		KeyBy(func(e core.Event) string { return e.Key }).
		Map("fanout", func(e core.Event) (core.Event, bool) { return e, true }).
		Sink("out", sink.Factory())
	runJob(t, b)
	return sink.Events()
}

// forEachPipeline runs body once per pipeline and operator parallelism, as
// a subtest named pipeline/par-N/exactly-once.
func forEachPipeline(t *testing.T, pipelines map[string]pipelineRun, body func(t *testing.T, name string, par int)) {
	names := make([]string, 0, len(pipelines))
	for name := range pipelines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par-%d/exactly-once", name, par), func(t *testing.T) {
				body(t, name, par)
			})
		}
	}
}

// TestBatchedOutputEqualityMatrix is the batch-boundary property: each
// pipeline's output is byte-identical, per-key order included, at batch
// capacities 1, 7 and 64 — a windowed sum over non-integral, out-of-order
// values with late drops and late re-emissions, CEP, and a CQL GROUP BY.
func TestBatchedOutputEqualityMatrix(t *testing.T) {
	pipelines := map[string]pipelineRun{"window": runLateSum, "cep": runCEP, "cql": runCQL}
	forEachPipeline(t, pipelines, func(t *testing.T, name string, par int) {
		run := pipelines[name]
		want := perKey(run(t, 1, par))
		if len(want) == 0 {
			t.Fatal("reference run produced no output")
		}
		for _, capacity := range []int{7, 64} {
			got := perKey(run(t, capacity, par))
			if len(got) != len(want) {
				t.Fatalf("capacity %d: %d keys, capacity 1: %d", capacity, len(got), len(want))
			}
			for k, seq := range want {
				if fmt.Sprint(got[k]) != fmt.Sprint(seq) {
					t.Fatalf("capacity %d: key %s output differs:\n got %v\nwant %v", capacity, k, got[k], seq)
				}
			}
		}
	})
}

// runWindowedCount runs a keyed tumbling count over a generated stream.
func runWindowedCount(t *testing.T, capacity, par int) []core.Event {
	t.Helper()
	sink := core.NewCollectSink()
	b := core.NewBuilder(batchConfig("eq-window", capacity, par))
	s := b.Source("src", chunkSource(countEvents(), 100), core.WithBoundedDisorder(0), core.WithParallelism(1)).
		KeyBy(func(e core.Event) string { return e.Key })
	window.Apply(s, "win", window.NewTumbling(1_000), window.CountAggregate()).
		Sink("out", sink.Factory())
	runJob(t, b)
	return sink.Events()
}

func countEvents() []core.Event {
	return gen.Events(gen.Spec{N: 4_000, Keys: 16, IntervalMs: 10, Seed: 11})
}

// countReference is runWindowedCount evaluated sequentially.
func countReference() map[string]int {
	counts := map[[2]any]int64{}
	for _, e := range countEvents() {
		counts[[2]any{e.Key, e.Timestamp / 1_000}]++
	}
	out := map[string]int{}
	for k, n := range counts {
		out[fmt.Sprintf("%s@%d=%d", k[0], k[1].(int64)*1_000+999, n)]++
	}
	return out
}

// cepReference is runCEP evaluated sequentially: one matcher per card, fed
// the card's transactions in stream order, its runs discarded after a match.
func cepReference() map[string]int {
	pattern := fraudPattern()
	runs := map[string][]cep.Run{}
	out := map[string]int{}
	for _, e := range fraudEvents() {
		card := e.Value.(gen.Transaction).Card
		e.Key = card
		m := cep.NewMatcher(pattern)
		m.SetRuns(runs[card])
		if matches := m.Process(e); len(matches) > 0 {
			out[fmt.Sprintf("%s@%d=alert", card, matches[0].End)]++
			delete(runs, card)
			continue
		}
		runs[card] = m.Runs()
	}
	return out
}

// TestColumnarOutputEqualityMatrix holds the whole-batch engine, at the
// benchmark's batch capacity of 64, to a sequential evaluation of the same
// query: a windowed count (window's run-segmented batch fold) and CEP (a
// per-record operator behind the adapter), at operator parallelism 1 and 4.
func TestColumnarOutputEqualityMatrix(t *testing.T) {
	pipelines := map[string]pipelineRun{"window": runWindowedCount, "cep": runCEP}
	refs := map[string]map[string]int{"window": countReference(), "cep": cepReference()}
	forEachPipeline(t, pipelines, func(t *testing.T, name string, par int) {
		want := refs[name]
		if len(want) == 0 {
			t.Fatal("reference produced no output")
		}
		requireEqualOutput(t, t.Name(), want, multiset(pipelines[name](t, 64, par)))
	})
}

// TestBatchedCheckpointRestoreEquality stops a batched windowed job at a
// savepoint, restores it, and verifies the combined output equals a clean
// run at batch capacity 1 — exactly-once survives batching, including
// batches stashed during barrier alignment.
func TestBatchedCheckpointRestoreEquality(t *testing.T) {
	spec := gen.Spec{N: 3_000, Keys: 8, IntervalMs: 10, Seed: 21}
	store := core.NewMemorySnapshotStore()

	build := func(batch, stopAt int, jobRef **core.Job, st *core.MemorySnapshotStore, sink *core.CollectSink) *core.Job {
		b := core.NewBuilder(core.Config{
			Name:              "batch-restore",
			MaxBatchSize:      batch,
			SnapshotStore:     st,
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

	ref := core.NewCollectSink()
	runWithTimeout(t, build(0, 0, nil, nil, ref))

	clean := core.NewCollectSink()
	runWithTimeout(t, build(64, 0, nil, nil, clean))
	requireEqualOutput(t, "clean", multiset(ref.Events()), multiset(clean.Events()))

	var j1 *core.Job
	part1 := core.NewCollectSink()
	j1 = build(64, 1_000, &j1, store, part1)
	runWithTimeout(t, j1)
	cp := j1.LastCheckpoint()
	if cp < 0 {
		t.Fatal("no savepoint completed")
	}
	part2 := core.NewCollectSink()
	j2 := build(64, 0, nil, store, part2)
	j2.RestoreFrom(cp)
	runWithTimeout(t, j2)
	requireEqualOutput(t, "restored",
		multiset(ref.Events()),
		multiset(append(part1.Events(), part2.Events()...)))
}
