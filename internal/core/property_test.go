package core

// Randomized-pipeline property tests: arbitrary DAG shapes and parallelism
// assignments must compute exactly the same multiset of results as a direct
// sequential evaluation of the same transformations.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// pipelineSpec is a randomly drawn linear pipeline of element-wise stages.
type pipelineSpec struct {
	stages []stageSpec
}

type stageSpec struct {
	kind        int // 0 map(add), 1 filter(mod), 2 flatmap(dup), 3 keyBy
	param       int64
	parallelism int
}

// applySequential computes the reference result.
func (p pipelineSpec) applySequential(inputs []int64) []int64 {
	cur := inputs
	for _, s := range p.stages {
		var next []int64
		switch s.kind {
		case 0:
			for _, v := range cur {
				next = append(next, v+s.param)
			}
		case 1:
			for _, v := range cur {
				if v%s.param != 0 {
					next = append(next, v)
				}
			}
		case 2:
			for _, v := range cur {
				next = append(next, v, v*2)
			}
		default: // keyBy is a routing no-op for values
			next = cur
		}
		cur = next
	}
	return cur
}

// build assembles the equivalent engine pipeline.
func (p pipelineSpec) build(b *Builder, inputs []int64) *CollectSink {
	events := make([]Event, len(inputs))
	for i, v := range inputs {
		events[i] = Event{Timestamp: int64(i), Value: v}
	}
	s := b.Source("src", NewSliceSourceFactory(events))
	for i, st := range p.stages {
		name := fmt.Sprintf("stage-%d", i)
		switch st.kind {
		case 0:
			param := st.param
			s = s.ProcessWith(name, MapFunc(func(e Event, ctx Context) error {
				e.Value = e.Value.(int64) + param
				ctx.Emit(e)
				return nil
			}), st.parallelism)
		case 1:
			param := st.param
			s = s.ProcessWith(name, MapFunc(func(e Event, ctx Context) error {
				if e.Value.(int64)%param != 0 {
					ctx.Emit(e)
				}
				return nil
			}), st.parallelism)
		case 2:
			s = s.ProcessWith(name, MapFunc(func(e Event, ctx Context) error {
				ctx.Emit(e)
				e2 := e
				e2.Value = e.Value.(int64) * 2
				ctx.Emit(e2)
				return nil
			}), st.parallelism)
		default:
			s = s.KeyBy(func(e Event) string {
				return fmt.Sprintf("k%d", e.Value.(int64)%5)
			}).ProcessWith(name, MapFunc(func(e Event, ctx Context) error {
				ctx.Emit(e)
				return nil
			}), st.parallelism)
		}
	}
	sink := NewCollectSink()
	s.Sink("out", sink.Factory())
	return sink
}

// TestRandomPipelinesMatchSequentialEvaluation draws random pipelines and
// inputs and verifies the engine computes exactly the sequential result as a
// multiset, across parallelism and partitioning choices.
func TestRandomPipelinesMatchSequentialEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		nStages := 1 + rng.Intn(5)
		spec := pipelineSpec{}
		for i := 0; i < nStages; i++ {
			spec.stages = append(spec.stages, stageSpec{
				kind:        rng.Intn(4),
				param:       int64(1 + rng.Intn(7)),
				parallelism: 1 + rng.Intn(3),
			})
		}
		inputs := make([]int64, 50+rng.Intn(200))
		for i := range inputs {
			inputs[i] = int64(rng.Intn(1000))
		}

		want := spec.applySequential(inputs)

		b := NewBuilder(Config{Name: fmt.Sprintf("prop-%d", trial), ChannelCapacity: 16})
		sink := spec.build(b, inputs)
		j, err := b.Build()
		if err != nil {
			t.Fatalf("trial %d: build: %v (spec %+v)", trial, err, spec)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := j.Run(ctx); err != nil {
			cancel()
			t.Fatalf("trial %d: run: %v", trial, err)
		}
		cancel()

		var got []int64
		for _, e := range sink.Events() {
			got = append(got, e.Value.(int64))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(want) != len(got) {
			t.Fatalf("trial %d: result sizes differ: want %d, got %d (spec %+v)",
				trial, len(want), len(got), spec)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: multiset differs at %d: want %d, got %d",
					trial, i, want[i], got[i])
			}
		}
	}
}

// TestRandomPipelineWithCheckpointRestore draws random linear pipelines,
// savepoints them mid-stream, restores, and verifies the combined output
// equals the sequential result — recovery correctness under arbitrary
// topology shapes.
func TestRandomPipelineWithCheckpointRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		nStages := 1 + rng.Intn(3)
		spec := pipelineSpec{}
		for i := 0; i < nStages; i++ {
			// Deterministic per-element stages only.
			spec.stages = append(spec.stages, stageSpec{kind: []int{0, 2, 3}[rng.Intn(3)],
				param: int64(1 + rng.Intn(7)), parallelism: 1})
		}
		inputs := make([]int64, 200)
		for i := range inputs {
			inputs[i] = int64(rng.Intn(1000))
		}
		want := spec.applySequential(inputs)

		store := NewMemorySnapshotStore()
		run := func(restore int64, stopAt int, jobRef **Job) []int64 {
			b := NewBuilder(Config{Name: fmt.Sprintf("prop-rec-%d", trial), SnapshotStore: store})
			events := make([]Event, len(inputs))
			for i, v := range inputs {
				events[i] = Event{Timestamp: int64(i), Value: v}
			}
			src := NewSliceSourceFactory(events)
			if stopAt > 0 {
				src = triggerAfter(src, stopAt, true, jobRef)
			}
			s := b.Source("src", src).Map("trig", func(e Event) (Event, bool) { return e, true })
			for i, st := range spec.stages {
				name := fmt.Sprintf("stage-%d", i)
				switch st.kind {
				case 0:
					param := st.param
					s = s.Map(name, func(e Event) (Event, bool) {
						e.Value = e.Value.(int64) + param
						return e, true
					})
				case 2:
					s = s.FlatMap(name, func(e Event, emit func(Event)) {
						emit(e)
						e2 := e
						e2.Value = e.Value.(int64) * 2
						emit(e2)
					})
				default:
					s = s.KeyBy(func(e Event) string {
						return fmt.Sprintf("k%d", e.Value.(int64)%5)
					}).Process(name, MapFunc(func(e Event, ctx Context) error {
						ctx.Emit(e)
						return nil
					}))
				}
			}
			sink := NewCollectSink()
			s.Sink("out", sink.Factory())
			j, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if jobRef != nil {
				*jobRef = j
			}
			if restore >= 0 {
				j.RestoreFrom(restore)
			}
			runJob(t, j)
			var out []int64
			for _, e := range sink.Events() {
				out = append(out, e.Value.(int64))
			}
			return out
		}

		var j1 *Job
		part1 := run(-1, 60+rng.Intn(80), &j1)
		cp := j1.LastCheckpoint()
		if cp < 0 {
			t.Fatalf("trial %d: no savepoint", trial)
		}
		part2 := run(cp, 0, nil)

		got := append(part1, part2...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(want) != len(got) {
			t.Fatalf("trial %d: sizes differ after recovery: want %d got %d", trial, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: recovered multiset differs at %d", trial, i)
			}
		}
	}
}
