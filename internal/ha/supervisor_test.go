package ha

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/window"
)

// windowEvents is n events over five keys, 10ms of event time apart, so a
// tumbling 1s count window yields the same result set at any parallelism.
func windowEvents(n int) []core.Event {
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{Key: fmt.Sprintf("k%d", i%5), Timestamp: int64(i * 10), Value: int64(i)}
	}
	return events
}

// windowBuild returns paced source (parallelism 1) -> trip (parallelism 1)
// -> keyed tumbling count window "win" at the incarnation's parallelism ->
// sink. trip, when non-nil, is asked per incarnation parallelism whether the
// incarnation should fail on its first record.
func windowBuild(events []core.Event, pace func(int) time.Duration, trip func(par int) bool) BuildFunc {
	return func(par int, sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		fail := trip != nil && trip(par)
		b := core.NewBuilder(core.Config{
			Name:               "supervised-window",
			SnapshotStore:      store,
			CheckpointEvery:    60,
			ChannelCapacity:    4,
			WatermarkInterval:  1,
			DefaultParallelism: par,
		})
		keyed := b.Source("src", core.NewPacedSourceFactory(events, pace),
			core.WithParallelism(1), core.WithBoundedDisorder(0)).
			ProcessWith("trip", core.MapFunc(func(e core.Event, ctx core.Context) error {
				if fail {
					return fmt.Errorf("injected failure at parallelism %d", par)
				}
				ctx.Emit(e)
				return nil
			}), 1).
			KeyBy(func(e core.Event) string { return e.Key })
		window.Apply(keyed, "win", window.NewTumbling(1_000), window.CountAggregate()).
			Sink("out", sink.Factory())
		return b.Build()
	}
}

// signature reduces a result set to a canonical order-independent form,
// values included.
func signature(events []core.Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%s@%d=%v", e.Key, e.Timestamp, e.Value)
	}
	sort.Strings(out)
	return out
}

// baseline runs the window pipeline once at a fixed parallelism, unpaced
// and unsupervised: the output every supervised run must reproduce.
func baseline(t *testing.T, events []core.Event) []string {
	t.Helper()
	sink := core.NewCollectSink()
	job, err := windowBuild(events, nil, nil)(2, sink, core.NewMemorySnapshotStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return signature(sink.Events())
}

// rescaleAfterFirstOutput is a Watch that asks for parallelism to once the
// first incarnation has emitted a result, retrying while the job rejects
// the savepoint.
func rescaleAfterFirstOutput(s *Supervisor, to int) func(context.Context, Incarnation) error {
	return func(ctx context.Context, inc Incarnation) error {
		if inc.Attempt != 0 {
			return nil
		}
		select {
		case <-inc.Sink.WhenLen(1):
		case <-ctx.Done():
			return nil
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for !s.Rescale(to) {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return nil
			}
		}
		return nil
	}
}

// noCompleteStore loses every checkpoint at its last step, so none ever
// completes: savepoints abort and restarts find nothing to restore.
type noCompleteStore struct{ core.SnapshotStore }

func (noCompleteStore) Complete(core.CheckpointMeta) error { return errors.New("complete refused") }

func pace50us(int) time.Duration { return 50 * time.Microsecond }

// TestSupervisorDescribeCountsRestarts pins that every supervised lineage,
// not only an elastic one, reports its restarts on /jobs.
func TestSupervisorDescribeCountsRestarts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fac, _ := flakyFactory(500, 250)
	s := &Supervisor{
		Build: func(_ int, sink *core.CollectSink, st core.SnapshotStore) (*core.Job, error) {
			return fac(sink, st)
		},
		Store:   core.NewMemorySnapshotStore(),
		Restart: RestartStrategy{MaxRestarts: 3, Delay: time.Millisecond},
	}
	if s.Describe() != nil {
		t.Fatal("Describe before the first incarnation should be empty")
	}
	out, rep, err := s.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 500 || rep.Restarts != 1 {
		t.Fatalf("want 500 outputs after one restart, got %d after %+v", len(out), rep)
	}
	infos := s.Describe()
	if len(infos) != 1 || infos[0].Restarts != 1 || infos[0].Rescales != 0 {
		t.Fatalf("Describe lineage: want 1 restart and no rescales, got %+v", infos)
	}
}

// TestSupervisorRestartBudgetExhausted rescales 2 -> 4 and then crashes
// every incarnation at 4: the rescale must not consume the restart budget,
// and the budget's end must fail the run with every attempt counted.
func TestSupervisorRestartBudgetExhausted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := &Supervisor{
		Build:       windowBuild(windowEvents(900), pace50us, func(par int) bool { return par == 4 }),
		Store:       core.NewMemorySnapshotStore(),
		Restart:     RestartStrategy{MaxRestarts: 2, Delay: time.Millisecond},
		Node:        "win",
		Parallelism: 2,
	}
	s.Watch = rescaleAfterFirstOutput(s, 4)
	_, rep, err := s.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "injected failure at parallelism 4") {
		t.Fatalf("want the rescaled incarnation's failure once the budget is spent, got %v", err)
	}
	// 1 initial + 1 rescaled + 2 restarts, all at the rescaled parallelism.
	if rep.Attempts != 4 || rep.Restarts != 2 || len(rep.Failures) != 3 {
		t.Fatalf("want 4 attempts, 2 restarts and 3 failures, got %+v", rep)
	}
	for i, from := range rep.RecoveredFrom[1:] {
		if from < 0 {
			t.Fatalf("attempt %d started fresh; want a restore of the rescaled checkpoint: %v", i+1, rep.RecoveredFrom)
		}
	}
}

// TestSupervisorWithoutCheckpoint covers the two branches that start fresh
// because no checkpoint ever completed: a rescale whose savepoint aborted
// starts fresh at the target parallelism, and a crash after it restarts fresh
// at the lineage's initial parallelism. Output equals the fixed run.
func TestSupervisorWithoutCheckpoint(t *testing.T) {
	events := windowEvents(400)
	want := baseline(t, events)
	for _, tc := range []struct {
		name    string
		crashAt int // parallelism whose first incarnation crashes, 0 = none
		pars    []int
	}{
		{name: "rescale-starts-fresh-at-target", pars: []int{2, 4}},
		{name: "crash-restarts-fresh-at-initial", crashAt: 4, pars: []int{2, 4, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			crashed := false
			var pars []int
			s := &Supervisor{
				Build: windowBuild(events, pace50us, func(par int) bool {
					pars = append(pars, par)
					if par == tc.crashAt && !crashed {
						crashed = true
						return true
					}
					return false
				}),
				Store:       noCompleteStore{core.NewMemorySnapshotStore()},
				Restart:     RestartStrategy{MaxRestarts: 1, Delay: time.Millisecond},
				Node:        "win",
				Parallelism: 2,
			}
			s.Watch = rescaleAfterFirstOutput(s, 4)
			out, rep, err := s.Run(ctx)
			if err != nil {
				t.Fatalf("run failed (report %+v): %v", rep, err)
			}
			if got := signature(out); !reflect.DeepEqual(got, want) {
				t.Fatalf("output diverged from the fixed run:\n got %d results %v\nwant %d results %v", len(got), got, len(want), want)
			}
			if !reflect.DeepEqual(pars, tc.pars) {
				t.Fatalf("incarnation parallelisms: want %v, got %v", tc.pars, pars)
			}
			for _, from := range rep.RecoveredFrom {
				if from != -1 {
					t.Fatalf("no checkpoint completed, yet an attempt restored one: %v", rep.RecoveredFrom)
				}
			}
			if len(rep.Rescales) != 1 || rep.Rescales[0].SavepointID != -1 || rep.Rescales[0].To != 4 {
				t.Fatalf("want one fresh rescale to 4, got %+v", rep.Rescales)
			}
			if rep.FinalParallelism != tc.pars[len(tc.pars)-1] {
				t.Fatalf("final parallelism: want %d, got %d", tc.pars[len(tc.pars)-1], rep.FinalParallelism)
			}
		})
	}
}
