// Package ha holds the high-availability techniques whose evolution §3.2
// of the paper reviews. Passive standby, restart and reconfiguration (§3.3)
// are one mechanism, restart from the latest snapshot at a possibly new
// parallelism: Supervisor runs it, and RunSupervised (a restart strategy),
// RunPassiveStandby (one failover) and internal/elastic (a scaling policy)
// are thin layers over it. Active standby runs two identical jobs in
// parallel and switches to the already caught-up secondary when the primary
// fails — near-zero recovery time at twice the resource cost, "the preferred
// option for critical applications".
//
// Experiment E7 uses these, plus the lineage-based micro-batch baseline in
// package lineage, to reproduce the recovery-time vs. overhead trade-off.
package ha

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// JobFactory builds a fresh, identical job instance: same replayable input,
// writing to the given sink, checkpointing to the given store (which may be
// ignored by the job when nil).
type JobFactory func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error)

// Report summarises one recovery run.
type Report struct {
	Mode string
	// Output is the number of distinct result events delivered after dedup.
	Output int
	// Duplicates counts result events that were produced more than once
	// across the failover (suppressed by the dedup stage).
	Duplicates int
	// RecoveryMillis is the wall time from the failure to the standby having
	// produced output beyond the primary's progress. Only meaningful when
	// RecoveryMeasured is true.
	RecoveryMillis int64
	// RecoveryMeasured reports whether RecoveryMillis was actually observed:
	// false when the standby legitimately produced no post-failure output
	// (nothing left to replay), which is not a recovery timeout.
	RecoveryMeasured bool
	// ResourceUnits approximates steady-state cost: number of concurrently
	// running job instances during normal operation.
	ResourceUnits int
	// ReplayedEvents counts source events reprocessed after the failure
	// (zero for active standby; checkpoint-tail for passive).
	ReplayedEvents int
}

// Dedup merges result-event slices from successive job incarnations keeping
// first occurrences, and counts the suppressed duplicates — the exactly-once
// merge of every supervised lineage and of active standby's pair. Events are
// identified by (Key, Timestamp): jobs used with this package must emit
// results whose pairs are unique, which deterministic pipelines over
// replayable sources naturally provide.
func Dedup(slices ...[]core.Event) (out []core.Event, duplicates int) {
	seen := make(map[string]bool)
	for _, s := range slices {
		for _, e := range s {
			id := fmt.Sprintf("%s@%d", e.Key, e.Timestamp)
			if seen[id] {
				duplicates++
				continue
			}
			seen[id] = true
			out = append(out, e)
		}
	}
	return out, duplicates
}

// RunActiveStandby runs two identical jobs concurrently, kills the primary
// once it has produced killAfter results, and lets the secondary finish. The
// merged, deduplicated output plus the recovery accounting is returned.
func RunActiveStandby(ctx context.Context, fac JobFactory, killAfter int) ([]core.Event, Report, error) {
	rep := Report{Mode: "active-standby", ResourceUnits: 2}

	primarySink := core.NewCollectSink()
	secondarySink := core.NewCollectSink()
	primary, err := fac(primarySink, nil)
	if err != nil {
		return nil, rep, err
	}
	secondary, err := fac(secondarySink, nil)
	if err != nil {
		return nil, rep, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	primaryDone := make(chan error, 1)
	secondaryDone := make(chan error, 1)
	go func() { primaryDone <- primary.Run(runCtx) }()
	go func() { secondaryDone <- secondary.Run(runCtx) }()

	// Fail the primary after killAfter outputs (or when it finishes first).
	select {
	case <-primarySink.WhenLen(killAfter):
	case err := <-primaryDone:
		primaryDone <- err
	case <-ctx.Done():
		return nil, rep, ctx.Err()
	}
	failureAt := time.Now()
	primary.Stop()
	<-primaryDone

	// Failover: the secondary is already running; recovery time is how long
	// until its output covers the primary's progress.
	select {
	case <-secondarySink.WhenLen(primarySink.Len()):
	case err := <-secondaryDone:
		secondaryDone <- err
	case <-ctx.Done():
		return nil, rep, ctx.Err()
	}
	rep.RecoveryMillis = time.Since(failureAt).Milliseconds()
	rep.RecoveryMeasured = true
	if err := <-secondaryDone; err != nil && err != context.Canceled {
		return nil, rep, fmt.Errorf("ha: secondary failed: %w", err)
	}

	out, dups := Dedup(primarySink.Events(), secondarySink.Events())
	rep.Output = len(out)
	rep.Duplicates = dups
	return out, rep, nil
}

// RunPassiveStandby runs one job with checkpointing, kills it after
// killAfter results (or at its end, if the stream is shorter), then starts a
// standby restored from the latest checkpoint and lets it finish. It is one
// supervised incarnation plus one restore; without a completed checkpoint
// to restore it returns an error.
func RunPassiveStandby(ctx context.Context, fac JobFactory, store core.SnapshotStore, killAfter int) ([]core.Event, Report, error) {
	rep := Report{Mode: "passive-standby", ResourceUnits: 1}
	var killedAt time.Time
	s := &Supervisor{
		Build: func(_ int, sink *core.CollectSink, st core.SnapshotStore) (*core.Job, error) {
			if !killedAt.IsZero() {
				if _, ok := st.Latest(); !ok {
					return nil, errors.New("ha: no completed checkpoint to recover from")
				}
			}
			return fac(sink, st)
		},
		Store: store,
		// Fail over at once: the standby is the only restart.
		Restart: RestartStrategy{MaxRestarts: 1, Delay: time.Nanosecond},
		Watch: func(ctx context.Context, inc Incarnation) error {
			if inc.Attempt == 0 {
				select {
				case <-inc.Sink.WhenLen(killAfter):
					killedAt = time.Now()
					inc.Job.Stop()
				case <-ctx.Done():
					killedAt = time.Now()
				}
				return errors.New("ha: primary stopped for failover")
			}
			// Recovery time is failure → the standby's first output
			// (restore + replay to the failure point). A standby that
			// produced no output at all is NOT a slow recovery — there was
			// nothing left to replay past the checkpoint — so it stays
			// unmeasured instead of charging the whole standby runtime.
			select {
			case <-inc.Sink.WhenLen(1):
			case <-ctx.Done():
				if inc.Sink.Len() == 0 {
					return nil
				}
			}
			rep.RecoveryMillis = time.Since(killedAt).Milliseconds()
			rep.RecoveryMeasured = true
			return nil
		},
	}
	out, srep, err := s.Run(ctx)
	if err != nil {
		return nil, rep, err
	}
	rep.Output = len(out)
	rep.Duplicates = srep.Duplicates
	rep.ReplayedEvents = srep.Duplicates // duplicates are exactly the replayed overlap
	return out, rep, nil
}
