package ha

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// BuildFunc builds one incarnation of a supervised job with the supervised
// node at the given parallelism, writing results to sink and checkpointing
// to store. Every call must produce the same logical pipeline, varying only
// that node's parallelism: other nodes (sources in particular) keep theirs,
// because their checkpointed state is restored per instance without
// redistribution.
type BuildFunc func(parallelism int, sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error)

// RestartStrategy bounds how a supervised job recovers from crashes: each
// failed run (operator error, panic, injected fault) is restarted after a
// fixed delay from the latest completed checkpoint, up to MaxRestarts times.
// This is the "restart from the latest checkpointed snapshot" loop that makes
// passive standby a complete fault-tolerance mechanism rather than a one-shot
// failover.
type RestartStrategy struct {
	// MaxRestarts is the number of restarts allowed after the initial run
	// (so MaxRestarts=3 permits 4 attempts total). Zero or negative uses the
	// default of 3.
	MaxRestarts int
	// Delay is the fixed pause before each restart. Zero uses 10ms.
	Delay time.Duration
}

func (s RestartStrategy) withDefaults() RestartStrategy {
	if s.MaxRestarts <= 0 {
		s.MaxRestarts = 3
	}
	if s.Delay <= 0 {
		s.Delay = 10 * time.Millisecond
	}
	return s
}

// RescaleEvent records one completed live reconfiguration.
type RescaleEvent struct {
	From, To int
	// SavepointID is the checkpoint the rescale consumed (normally the
	// stop-with-savepoint's checkpoint; the latest completed one if the
	// savepoint itself aborted; -1 if none had completed and the new
	// incarnation started fresh). RescaledID = SavepointID+1 is the
	// synthesised checkpoint the new incarnation restored from.
	SavepointID int64
	RescaledID  int64
	// StateBytes and Timers account the redistributed state volume.
	StateBytes int64
	Timers     int
	// Downtime is the output gap: savepoint trigger accepted → first output
	// of the re-parallelised incarnation (or its clean finish when the
	// remaining stream produced no output).
	Downtime time.Duration
	// Offline is the span with no job running: old incarnation exited →
	// new incarnation launched (RescaleCheckpoint + rebuild).
	Offline time.Duration
}

// SupervisionReport summarises one supervised run.
type SupervisionReport struct {
	// Attempts is the number of runs started (1 for a fault-free job; 1 +
	// rescales + restarts in general).
	Attempts int
	// Restarts counts crash recoveries (not planned rescales).
	Restarts int
	// RecoveredFrom records, per attempt, the checkpoint ID the run restored
	// from (-1 for a fresh start — the first attempt, or a restart before any
	// checkpoint completed).
	RecoveredFrom []int64
	// Failures holds the error text of every failed attempt, in order.
	Failures []string
	// Output and Duplicates account for the deduplicated merge of all
	// attempts' sink output.
	Output     int
	Duplicates int
	// RecoveryMillis sums, over every failure, the wall time from the
	// failure to the first output a restarted incarnation produced (restart
	// delay + restore + replay) — the passive-standby recovery metric under
	// supervision. Failures whose restart produced no output contribute the
	// time until that restart finished.
	RecoveryMillis int64
	// Rescales lists the completed live reconfigurations, in order.
	Rescales []RescaleEvent
	// FinalParallelism is the supervised node's parallelism in the last
	// incarnation.
	FinalParallelism int
}

// ScaleUps counts rescales that increased parallelism.
func (r SupervisionReport) ScaleUps() int {
	n := 0
	for _, e := range r.Rescales {
		if e.To > e.From {
			n++
		}
	}
	return n
}

// ScaleDowns counts rescales that decreased parallelism.
func (r SupervisionReport) ScaleDowns() int {
	n := 0
	for _, e := range r.Rescales {
		if e.To < e.From {
			n++
		}
	}
	return n
}

// Incarnation is one run of a supervised lineage, as Watch sees it.
type Incarnation struct {
	Attempt     int
	Parallelism int
	Job         *core.Job
	Sink        *core.CollectSink
}

// Supervisor runs a job lineage to the end of its stream. Its only verb is
// "build incarnation k at parallelism p, restore checkpoint c, run it,
// decide the next (p, c)":
//
//   - a failed run restarts after Restart.Delay, within Restart.MaxRestarts,
//     from the latest completed checkpoint at that checkpoint's parallelism
//     of Node (or fresh at Parallelism when none has completed);
//   - a run that Rescale stopped with a savepoint restarts from that
//     savepoint redistributed to the requested parallelism (or fresh at it
//     when no checkpoint has completed);
//   - a run that ends its stream returns the Dedup merge of every
//     incarnation's output, which under exactly-once checkpointing equals a
//     fault-free fixed-parallelism run.
//
// Recovery and rescale downtime are timed by the incarnation's first output.
// Set the exported fields before Run; a Supervisor runs once.
type Supervisor struct {
	Build   BuildFunc
	Store   core.SnapshotStore
	Restart RestartStrategy
	// Node names the node a rescale re-parallelises and whose parallelism a
	// restore reads from the checkpoint. Empty for a lineage that never
	// rescales.
	Node string
	// Parallelism is Node's parallelism on a fresh start (default 1).
	Parallelism int
	// OnStart, when non-nil, observes each incarnation before it runs; fault
	// injectors use it to aim their kill switches at the current one.
	OnStart func(attempt int, job *core.Job)
	// Watch, when non-nil, runs beside each incarnation in its own goroutine.
	// Its ctx is cancelled once the incarnation's Run returns, and the
	// supervisor waits for Watch before deciding what comes next. A non-nil
	// error fails the incarnation even if Run succeeded.
	Watch func(ctx context.Context, inc Incarnation) error
	// Tracer, when non-nil, records each rescale as a span.
	Tracer *obsv.Tracer
	// Log, when non-nil, receives a line per failure and per rescale.
	Log *log.Logger

	mu          sync.Mutex
	reg         *metrics.Registry
	job         *core.Job // the live (or last) incarnation
	par         int
	target      int // an accepted rescale's parallelism; 0 none yet, -1 run over
	triggeredAt time.Time

	restarts, rescales, lastDownMs, lastOffMs atomic.Int64 // for Describe
}

// Run drives the lineage to the end of its stream and returns the
// deduplicated output of every incarnation. ctx cancellation aborts it.
func (s *Supervisor) Run(ctx context.Context) ([]core.Event, SupervisionReport, error) {
	strategy := s.Restart.withDefaults()
	reg := s.Metrics()
	lg := s.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	initial := max(s.Parallelism, 1)
	par, from := initial, int64(-1)
	var rep SupervisionReport
	var sinks []*core.CollectSink
	// A failure opens a recovery window at failedAt, and a rescale opens
	// pending's downtime window at triggeredAt; the first output of a later
	// incarnation closes both.
	var failedAt, triggeredAt, offlineAt time.Time
	var pending *RescaleEvent
	for attempt := 0; ; attempt++ {
		sink := core.NewCollectSink()
		job, err := s.Build(par, sink, s.Store)
		if err != nil {
			return nil, rep, fmt.Errorf("ha: build attempt %d: %w", attempt, err)
		}
		if from >= 0 {
			job.RestoreFrom(from)
		}
		rep.Attempts++
		rep.RecoveredFrom = append(rep.RecoveredFrom, from)
		sinks = append(sinks, sink)
		s.mu.Lock()
		s.job, s.par, s.target = job, par, 0
		s.mu.Unlock()
		reg.Gauge("lineage.parallelism").Set(int64(par))
		if s.OnStart != nil {
			s.OnStart(attempt, job)
		}
		if pending != nil && pending.Offline == 0 {
			pending.Offline = time.Since(offlineAt)
		}

		runErr, firstAt := s.run(ctx, Incarnation{Attempt: attempt, Parallelism: par, Job: job, Sink: sink})
		s.mu.Lock()
		target, requestedAt := s.target, s.triggeredAt
		s.target = -1
		s.mu.Unlock()
		rescale := runErr == nil && target > 0 && job.SavepointStopped()

		// A clean end of the stream closes the windows too; an incarnation
		// that failed or was rescaled before any output leaves them open.
		if firstAt.IsZero() && (sink.Len() > 0 || (runErr == nil && !rescale)) {
			firstAt = time.Now()
		}
		if !firstAt.IsZero() && !failedAt.IsZero() {
			rep.RecoveryMillis += firstAt.Sub(failedAt).Milliseconds()
			failedAt = time.Time{}
		}
		if !firstAt.IsZero() && pending != nil {
			ev := *pending
			ev.Downtime = firstAt.Sub(triggeredAt)
			rep.Rescales = append(rep.Rescales, ev)
			pending = nil
			s.lastDownMs.Store(ev.Downtime.Milliseconds())
			s.lastOffMs.Store(ev.Offline.Milliseconds())
			reg.Histogram("lineage.rescale_downtime_ms").Observe(ev.Downtime.Milliseconds())
			reg.Histogram("lineage.rescale_offline_ms").Observe(ev.Offline.Milliseconds())
			reg.Counter("lineage.rescale_state_bytes").Add(ev.StateBytes)
			lg.Printf("rescale %d -> %d complete: downtime=%s offline=%s state=%dB timers=%d",
				ev.From, ev.To, ev.Downtime, ev.Offline, ev.StateBytes, ev.Timers)
		}

		if rescale {
			// Redistribute the latest completed checkpoint: normally the
			// savepoint; an older one if the savepoint aborted, whose
			// replayed tail the dedup merge suppresses; none, and the next
			// incarnation starts fresh.
			ev := RescaleEvent{From: par, To: target, SavepointID: -1, RescaledID: -1}
			offlineAt = time.Now()
			if meta, ok := s.Store.Latest(); !ok {
				lg.Printf("rescale %d -> %d with no completed checkpoint; fresh start", par, target)
			} else if stats, err := core.RescaleCheckpointTraced(s.Tracer, s.Store, meta.ID, meta.ID+1, s.Node, target, job.NumKeyGroups()); err != nil {
				// A failed rescale is a crash inside the reconfiguration
				// window: recover as from any failure. The policy asks
				// again once the job runs.
				runErr = fmt.Errorf("ha: rescale %d -> %d: %w", par, target, err)
			} else {
				ev.SavepointID, ev.RescaledID, ev.StateBytes, ev.Timers = meta.ID, meta.ID+1, stats.StateBytes, stats.Timers
			}
			if runErr == nil {
				s.rescales.Add(1)
				reg.Counter("lineage.rescales").Inc()
				pending, triggeredAt = &ev, requestedAt
				par, from = target, ev.RescaledID
				continue
			}
		}
		if runErr == nil {
			slices := make([][]core.Event, len(sinks))
			for i, sk := range sinks {
				slices[i] = sk.Events()
			}
			out, dups := Dedup(slices...)
			rep.Output, rep.Duplicates, rep.FinalParallelism = len(out), dups, par
			return out, rep, nil
		}
		if ctx.Err() != nil {
			return nil, rep, ctx.Err()
		}
		rep.Failures = append(rep.Failures, runErr.Error())
		if rep.Restarts >= strategy.MaxRestarts {
			return nil, rep, fmt.Errorf("ha: job failed after %d attempts: %w", rep.Attempts, runErr)
		}
		lg.Printf("attempt %d failed: %v", attempt, runErr)
		if failedAt.IsZero() {
			failedAt = time.Now()
		}
		select {
		case <-time.After(strategy.Delay):
		case <-ctx.Done():
			return nil, rep, ctx.Err()
		}
		rep.Restarts++
		s.restarts.Add(1)
		reg.Counter("lineage.restarts").Inc()
		// Roll back to the latest completed checkpoint — which may sit on
		// either side of a crashed reconfiguration — at THAT checkpoint's
		// parallelism, read from its own instance list.
		par, from = initial, -1
		if meta, ok := s.Store.Latest(); ok {
			from = meta.ID
			if p := core.NodeParallelismIn(meta, s.Node); p > 0 {
				par = p
			}
		}
	}
}

// run executes one incarnation with Watch beside it, and returns its error
// and the arrival time of its first output (zero if none arrived while it
// ran).
func (s *Supervisor) run(ctx context.Context, inc Incarnation) (runErr error, firstAt time.Time) {
	done := make(chan error, 1)
	go func() { done <- inc.Job.Run(ctx) }()
	watchCtx, stopWatch := context.WithCancel(ctx)
	var watched sync.WaitGroup
	var watchErr error
	if s.Watch != nil {
		watched.Add(1)
		go func() {
			defer watched.Done()
			watchErr = s.Watch(watchCtx, inc)
		}()
	}
	select {
	case <-inc.Sink.WhenLen(1):
		firstAt = time.Now()
		runErr = <-done
	case runErr = <-done:
	}
	stopWatch()
	watched.Wait()
	if runErr == nil {
		runErr = watchErr
	}
	return runErr, firstAt
}

// Rescale asks the running incarnation to stop with a savepoint so that the
// next one runs Node at parallelism p. It returns false when nothing was
// requested: no incarnation is running, a rescale is already under way, p
// is the current parallelism, or the job rejected the savepoint because it
// has not restored yet, a source has reached end of stream or a savepoint
// has already started — a policy retries on its next decision.
func (s *Supervisor) Rescale(p int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.job == nil || s.target != 0 || p < 1 || p == s.par || !s.job.TriggerSavepoint() {
		return false
	}
	s.target, s.triggeredAt = p, time.Now()
	return true
}

// CurrentParallelism returns Node's parallelism in the live (or last)
// incarnation, or the starting parallelism before Run.
func (s *Supervisor) CurrentParallelism() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.job == nil {
		return max(s.Parallelism, 1)
	}
	return s.par
}

// Metrics returns the lineage's registry: lineage.parallelism,
// lineage.restarts, lineage.rescales and the rescale downtime, offline and
// state-volume series. A policy may publish its own series beside them.
func (s *Supervisor) Metrics() *metrics.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	return s.reg
}

// Describe reports the live (or last) incarnation's topology with the
// lineage's restart and rescale counters filled in, for /jobs. It is empty
// before the first incarnation is built.
func (s *Supervisor) Describe() []obsv.JobInfo {
	s.mu.Lock()
	job := s.job
	s.mu.Unlock()
	if job == nil {
		return nil
	}
	info := job.Describe()
	info.Restarts = s.restarts.Load()
	info.Rescales = s.rescales.Load()
	info.LastRescaleDowntimeMs = s.lastDownMs.Load()
	info.LastRescaleDurationMs = s.lastOffMs.Load()
	return []obsv.JobInfo{info}
}

// RunSupervised runs a job under the restart strategy: fac builds every
// attempt, onStart (when non-nil) observes it, and it runs. Attempt 0 starts
// fresh; a failed attempt restarts after strategy.Delay from the latest
// completed checkpoint, when one exists. The merged, deduplicated output of
// all attempts is returned; under exactly-once checkpointing it equals the
// output of a fault-free run.
func RunSupervised(ctx context.Context, fac JobFactory, store core.SnapshotStore, strategy RestartStrategy, onStart func(attempt int, job *core.Job)) ([]core.Event, SupervisionReport, error) {
	s := &Supervisor{
		Build: func(_ int, sink *core.CollectSink, st core.SnapshotStore) (*core.Job, error) {
			return fac(sink, st)
		},
		Store:   store,
		Restart: strategy,
		OnStart: onStart,
	}
	return s.Run(ctx)
}
