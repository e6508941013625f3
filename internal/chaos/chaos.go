// Package chaos is the fault-injection harness for the recovery experiments:
// it manufactures, deterministically, the failures §3.2 of the paper says a
// second-generation system must survive — snapshot-store I/O errors and
// latency, torn partial writes, operator panics, and crashes at the worst
// possible points of the checkpoint lifecycle (mid-Save, between the last
// Save and Complete, mid-restore).
//
// The injectors compose with ha.RunSupervised: a FaultyStore wraps any
// core.SnapshotStore, a PanicInjector wraps any core.OperatorFactory, and a
// crash point arms a one-shot kill switch (typically core.Job.Fail) so the
// supervised job dies exactly once at the chosen point and must recover from
// its latest completed checkpoint.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ErrInjected is the error returned by every injected store fault.
var ErrInjected = errors.New("chaos: injected store fault")

// ErrInjectedCrash is the failure a crash point reports through the kill
// switch.
var ErrInjectedCrash = errors.New("chaos: injected crash")

// CrashPoint selects where in the checkpoint lifecycle the one-shot crash
// fires.
type CrashPoint int

const (
	// CrashNone disables the crash driver.
	CrashNone CrashPoint = iota
	// CrashMidSave kills the job during the At-th Save call, after a torn
	// prefix of the snapshot reached the underlying store — the classic
	// partial-write crash.
	CrashMidSave
	// CrashPreComplete kills the job on the At-th Complete call, after every
	// instance snapshot landed but before the checkpoint metadata commits —
	// the window where a non-atomic store would present a half checkpoint.
	CrashPreComplete
	// CrashMidRestore kills the job during the At-th Load call, i.e. while a
	// restarted incarnation is reading its restore snapshots.
	CrashMidRestore
	// CrashPostSavepoint kills the job right after the At-th *savepoint*
	// Complete commits durably — the start of a live-rescale window: the
	// savepoint exists, but the reconfiguration that was about to consume it
	// never ran. Recovery must resume from that savepoint. At counts
	// savepoint completions only.
	CrashPostSavepoint
	// CrashPreRescaleComplete fails the At-th Complete of a checkpoint
	// synthesised by RescaleCheckpoint before it reaches the underlying
	// store — a crash at the end of the rescale window, leaving the rescaled
	// checkpoint invisible so recovery rolls back to the pre-rescale
	// savepoint at the old parallelism. At counts rescale completions only.
	CrashPreRescaleComplete
	// CrashMidDeltaSave kills the job during the At-th Save of a *delta*
	// payload (an incremental checkpoint), after a torn prefix reached the
	// underlying store — the worst case for chain integrity: a torn delta
	// must never become a restorable link. At counts delta saves only.
	CrashMidDeltaSave
	// CrashMidChainRestore kills the job during the At-th *ancestor* Load —
	// a Load for a checkpoint older than Latest, which only happens while a
	// restarted incarnation is resolving a delta chain back to its full
	// parent. At counts ancestor loads only.
	CrashMidChainRestore
)

func (p CrashPoint) String() string {
	switch p {
	case CrashMidSave:
		return "mid-save"
	case CrashPreComplete:
		return "pre-complete"
	case CrashMidRestore:
		return "mid-restore"
	case CrashPostSavepoint:
		return "post-savepoint"
	case CrashPreRescaleComplete:
		return "pre-rescale-complete"
	case CrashMidDeltaSave:
		return "mid-delta-save"
	case CrashMidChainRestore:
		return "mid-chain-restore"
	default:
		return "none"
	}
}

// FaultPlan schedules deterministic store faults by per-operation ordinal
// (counted from 0 across the store's lifetime, which spans supervised
// restarts).
type FaultPlan struct {
	// FailSaveFrom/FailSaveCount make Save ordinals in
	// [FailSaveFrom, FailSaveFrom+FailSaveCount) fail — an I/O error burst.
	FailSaveFrom  int
	FailSaveCount int
	// FailSaveEvery additionally fails every Nth Save (0 = off).
	FailSaveEvery int
	// TornSave makes every failing Save first write a truncated prefix of
	// the snapshot through to the underlying store, simulating a torn write
	// that reached the medium before the error surfaced.
	TornSave bool
	// SaveLatency is added to every Save (slow durable storage).
	SaveLatency time.Duration
	// FailLoadFrom/FailLoadCount make Load ordinals fail (restore-path I/O
	// errors).
	FailLoadFrom  int
	FailLoadCount int
	// FailCompleteFrom/FailCompleteCount make Complete ordinals fail before
	// reaching the underlying store, so the checkpoint never becomes
	// visible.
	FailCompleteFrom  int
	FailCompleteCount int
}

func inWindow(ordinal, from, count int) bool {
	return count > 0 && ordinal >= from && ordinal < from+count
}

// FaultStats counts what the injector actually did.
type FaultStats struct {
	Saves, Loads, Completes                int // operations observed
	SaveFaults, LoadFaults, CompleteFaults int // operations failed
	TornWrites                             int
	Crashes                                int
}

// FaultyStore wraps a SnapshotStore with scheduled fault injection and an
// optional one-shot crash point. It is safe for concurrent use and forwards
// Discard when the underlying store supports it.
type FaultyStore struct {
	inner core.SnapshotStore
	plan  FaultPlan

	mu    sync.Mutex
	stats FaultStats

	crash   CrashPoint
	crashAt int
	crashed bool
	kill    atomic.Value // func()

	// Per-kind Complete ordinals, so the rescale-window crash points can be
	// aimed at "the Nth savepoint" / "the Nth rescale" instead of counting
	// periodic checkpoint completions that vary with timing.
	savepointCompletes int
	rescaleCompletes   int
	// Per-kind Save/Load ordinals for the incremental-checkpoint crash
	// points: delta-payload saves and ancestor (chain-link) loads.
	deltaSaves int
	chainLoads int
}

// Wrap builds a FaultyStore injecting plan over inner.
func Wrap(inner core.SnapshotStore, plan FaultPlan) *FaultyStore {
	return &FaultyStore{inner: inner, plan: plan}
}

// Arm installs a one-shot crash at the given lifecycle point and operation
// ordinal. The kill switch is set separately via SetKill (the job it aims at
// usually does not exist yet).
func (s *FaultyStore) Arm(point CrashPoint, at int) *FaultyStore {
	s.mu.Lock()
	s.crash = point
	s.crashAt = at
	s.mu.Unlock()
	return s
}

// SetKill aims the crash at a job incarnation; call it from the supervisor's
// onStart hook so restarts re-aim automatically. kill is invoked at most once
// (the crash is one-shot), outside the store lock.
func (s *FaultyStore) SetKill(kill func()) { s.kill.Store(kill) }

// Stats returns a snapshot of the injection counters.
func (s *FaultyStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// fire triggers the armed crash: marks it spent, counts it, and invokes the
// kill switch. Requires s.mu; the kill runs after unlock via the returned
// func.
func (s *FaultyStore) fireLocked() func() {
	s.crashed = true
	s.stats.Crashes++
	kill, _ := s.kill.Load().(func())
	return func() {
		if kill != nil {
			kill()
		}
	}
}

// Save implements core.SnapshotStore with injected latency, error windows,
// torn partial writes, and the mid-save crash point.
func (s *FaultyStore) Save(cp int64, instanceID string, data []byte) error {
	if s.plan.SaveLatency > 0 {
		time.Sleep(s.plan.SaveLatency)
	}
	// Sniffing delta payloads costs a decode per Save, which is fine for a
	// fault-injection harness and keeps the mid-delta-save ordinal exact.
	isDelta := core.SnapshotIsDelta(data)
	s.mu.Lock()
	ord := s.stats.Saves
	s.stats.Saves++
	var deltaOrd int
	if isDelta {
		deltaOrd = s.deltaSaves
		s.deltaSaves++
	}
	crash := !s.crashed && (s.crash == CrashMidSave && ord >= s.crashAt ||
		s.crash == CrashMidDeltaSave && isDelta && deltaOrd >= s.crashAt)
	fail := crash ||
		inWindow(ord, s.plan.FailSaveFrom, s.plan.FailSaveCount) ||
		(s.plan.FailSaveEvery > 0 && ord%s.plan.FailSaveEvery == s.plan.FailSaveEvery-1)
	torn := fail && (s.plan.TornSave || crash)
	if fail {
		s.stats.SaveFaults++
	}
	if torn {
		s.stats.TornWrites++
	}
	var kill func()
	if crash {
		kill = s.fireLocked()
	}
	s.mu.Unlock()

	if torn && len(data) > 0 {
		// The torn prefix reaches the medium before the failure surfaces.
		s.inner.Save(cp, instanceID, data[:len(data)/2])
	}
	if kill != nil {
		kill()
	}
	if fail {
		return fmt.Errorf("%w: save #%d (checkpoint %d, %s)", ErrInjected, ord, cp, instanceID)
	}
	return s.inner.Save(cp, instanceID, data)
}

// Load implements core.SnapshotStore with restore-path faults and the
// mid-restore crash point.
func (s *FaultyStore) Load(cp int64, instanceID string) ([]byte, error) {
	// A Load for a checkpoint older than Latest is a chain-link load: only
	// the delta-chain resolver reads ancestors during restore.
	lm, lok := s.inner.Latest()
	chainLoad := lok && cp != lm.ID
	s.mu.Lock()
	ord := s.stats.Loads
	s.stats.Loads++
	var chainOrd int
	if chainLoad {
		chainOrd = s.chainLoads
		s.chainLoads++
	}
	crash := !s.crashed && (s.crash == CrashMidRestore && ord >= s.crashAt ||
		s.crash == CrashMidChainRestore && chainLoad && chainOrd >= s.crashAt)
	fail := crash || inWindow(ord, s.plan.FailLoadFrom, s.plan.FailLoadCount)
	if fail {
		s.stats.LoadFaults++
	}
	var kill func()
	if crash {
		kill = s.fireLocked()
	}
	s.mu.Unlock()

	if kill != nil {
		kill()
	}
	if fail {
		return nil, fmt.Errorf("%w: load #%d (checkpoint %d, %s)", ErrInjected, ord, cp, instanceID)
	}
	return s.inner.Load(cp, instanceID)
}

// Complete implements core.SnapshotStore with completion faults and the
// pre-complete crash point: a crashing Complete never reaches the underlying
// store, so the checkpoint whose snapshots all landed stays invisible —
// exactly the window a crash between the last Save and the metadata commit
// would create.
func (s *FaultyStore) Complete(meta core.CheckpointMeta) error {
	s.mu.Lock()
	ord := s.stats.Completes
	s.stats.Completes++
	var kindOrd int
	switch {
	case meta.Rescaled:
		kindOrd = s.rescaleCompletes
		s.rescaleCompletes++
	case meta.Savepoint:
		kindOrd = s.savepointCompletes
		s.savepointCompletes++
	}
	armed := !s.crashed
	crashPre := armed && (s.crash == CrashPreComplete && ord >= s.crashAt ||
		s.crash == CrashPreRescaleComplete && meta.Rescaled && kindOrd >= s.crashAt)
	// The post-savepoint crash lets the Complete reach the medium first: the
	// savepoint is durable, the process dies immediately after — the moment a
	// live rescale would begin.
	crashPost := armed && s.crash == CrashPostSavepoint && meta.Savepoint && kindOrd >= s.crashAt
	fail := crashPre || inWindow(ord, s.plan.FailCompleteFrom, s.plan.FailCompleteCount)
	if fail {
		s.stats.CompleteFaults++
	}
	var kill func()
	if crashPre || crashPost {
		kill = s.fireLocked()
	}
	s.mu.Unlock()

	if fail {
		if kill != nil {
			kill()
		}
		return fmt.Errorf("%w: complete #%d (checkpoint %d)", ErrInjected, ord, meta.ID)
	}
	err := s.inner.Complete(meta)
	if kill != nil {
		kill()
	}
	return err
}

// Latest implements core.SnapshotStore.
func (s *FaultyStore) Latest() (core.CheckpointMeta, bool) { return s.inner.Latest() }

// Instances implements core.SnapshotStore.
func (s *FaultyStore) Instances(cp int64) ([]string, error) { return s.inner.Instances(cp) }

// Discard implements core.DiscardableStore when the wrapped store does.
func (s *FaultyStore) Discard(cp int64) error {
	if d, ok := s.inner.(core.DiscardableStore); ok {
		return d.Discard(cp)
	}
	return nil
}

// LinkFile implements core.FileLinkingStore by forwarding to the wrapped
// store; when the inner store cannot link files it reports
// core.ErrFileLinkUnsupported so instances fall back to embedding file
// contents, exactly as they would against the inner store directly.
func (s *FaultyStore) LinkFile(cp int64, name, src string) error {
	if ls, ok := s.inner.(core.FileLinkingStore); ok {
		return ls.LinkFile(cp, name, src)
	}
	return core.ErrFileLinkUnsupported
}

// LinkedPath implements core.FileLinkingStore (see LinkFile).
func (s *FaultyStore) LinkedPath(cp int64, name string) (string, error) {
	if ls, ok := s.inner.(core.FileLinkingStore); ok {
		return ls.LinkedPath(cp, name)
	}
	return "", core.ErrFileLinkUnsupported
}

var _ core.SnapshotStore = (*FaultyStore)(nil)
var _ core.DiscardableStore = (*FaultyStore)(nil)
var _ core.FileLinkingStore = (*FaultyStore)(nil)

// PanicInjector makes one wrapped operator instance panic after the injector
// has seen After elements in total — once per injector lifetime, so a
// supervised restart runs clean. The engine converts the panic into a job
// failure; the supervisor restarts from the latest completed checkpoint.
type PanicInjector struct {
	After int64
	seen  atomic.Int64
	fired atomic.Bool
}

// NewPanicInjector returns an injector that panics on the After-th processed
// element.
func NewPanicInjector(after int) *PanicInjector {
	return &PanicInjector{After: int64(after)}
}

// Fired reports whether the panic has been delivered.
func (p *PanicInjector) Fired() bool { return p.fired.Load() }

// Wrap decorates an operator factory with the injection.
func (p *PanicInjector) Wrap(fac core.OperatorFactory) core.OperatorFactory {
	return func() core.Operator {
		return &panicOperator{inner: fac(), inj: p}
	}
}

type panicOperator struct {
	inner core.Operator
	inj   *PanicInjector
}

func (o *panicOperator) Open(ctx core.Context) error { return o.inner.Open(ctx) }

func (o *panicOperator) ProcessElement(e core.Event, ctx core.Context) error {
	if o.inj.seen.Add(1) >= o.inj.After && o.inj.fired.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("chaos: injected operator panic after %d elements", o.inj.After))
	}
	return o.inner.ProcessElement(e, ctx)
}

func (o *panicOperator) OnTimer(ts int64, ctx core.Context) error { return o.inner.OnTimer(ts, ctx) }
func (o *panicOperator) OnWatermark(wm int64, ctx core.Context) error {
	return o.inner.OnWatermark(wm, ctx)
}
func (o *panicOperator) Close(ctx core.Context) error { return o.inner.Close(ctx) }
