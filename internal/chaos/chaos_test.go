package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/state"
	"repro/internal/window"
)

// pipelineEvents is the workload every matrix run processes: nEvents events
// over five keys, 10ms apart, so the tumbling 1s window yields a fully
// deterministic result set (nWindows windows x 5 keys, 20 events per cell).
const nEvents = 900

func pipelineEvents() []core.Event {
	events := make([]core.Event, nEvents)
	for i := range events {
		events[i] = core.Event{
			Key:       fmt.Sprintf("k%d", i%5),
			Timestamp: int64(i * 10),
			Value:     int64(i),
		}
	}
	return events
}

// pipelineFactory builds the matrix pipeline: parallel source -> relay
// (optionally panic-injected) -> keyed tumbling count window -> sink, with
// exactly-once checkpointing every 50 records. The small channel capacity
// backpressures the source and the relay paces the stream, so several
// checkpoints complete mid-run and the armed crash ordinals are reached.
func pipelineFactory(events []core.Event, wrapRelay func(core.OperatorFactory) core.OperatorFactory, mutate func(*core.Config)) ha.JobFactory {
	return func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		cfg := core.Config{
			Name:               "chaos-matrix",
			SnapshotStore:      store,
			CheckpointEvery:    50,
			ChannelCapacity:    4,
			WatermarkInterval:  1,
			DefaultParallelism: 2,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		b := core.NewBuilder(cfg)
		relay := core.MapFunc(func(e core.Event, ctx core.Context) error {
			time.Sleep(120 * time.Microsecond)
			ctx.Emit(e)
			return nil
		})
		if wrapRelay != nil {
			relay = wrapRelay(relay)
		}
		keyed := b.Source("src", core.NewSliceSourceFactory(events), core.WithBoundedDisorder(0)).
			Process("relay", relay).
			KeyBy(func(e core.Event) string { return e.Key })
		window.Apply(keyed, "win", window.NewTumbling(1_000), window.CountAggregate()).
			Sink("out", sink.Factory())
		return b.Build()
	}
}

// signature reduces a result set to a canonical, order-independent form that
// includes the values, so a replay that produced a wrong count (not just a
// missing/duplicate window) fails the equality check.
func signature(events []core.Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%s@%d=%v", e.Key, e.Timestamp, e.Value)
	}
	sort.Strings(out)
	return out
}

// verifyLatestRestorable asserts the acceptance property: whatever Latest
// returns is fully loadable — a checkpoint with a failed or torn Save must
// never be surfaced. Verification goes through the clean inner store so the
// injector cannot interfere.
func verifyLatestRestorable(t *testing.T, store core.SnapshotStore) {
	t.Helper()
	meta, ok := store.Latest()
	if !ok {
		return
	}
	ids, err := store.Instances(meta.ID)
	if err != nil {
		t.Fatalf("Instances(%d) after recovery: %v", meta.ID, err)
	}
	if len(ids) < len(meta.InstanceIDs) {
		t.Fatalf("checkpoint %d lists %d instances but the store holds %d", meta.ID, len(meta.InstanceIDs), len(ids))
	}
	for _, id := range meta.InstanceIDs {
		if _, err := store.Load(meta.ID, id); err != nil {
			t.Fatalf("Latest() returned checkpoint %d but instance %s does not load: %v", meta.ID, id, err)
		}
	}
}

// baseline runs the pipeline fault-free and returns its output signature.
func baseline(t *testing.T, ctx context.Context, events []core.Event) []string {
	t.Helper()
	store, err := core.NewFileSnapshotStore(filepath.Join(t.TempDir(), "chk"))
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := ha.RunSupervised(ctx, pipelineFactory(events, nil, nil), store,
		ha.RestartStrategy{MaxRestarts: 1, Delay: time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	if rep.Attempts != 1 {
		t.Fatalf("baseline needed %d attempts: %v", rep.Attempts, rep.Failures)
	}
	return signature(out)
}

// matrixScenario is one cell of the crash matrix.
type matrixScenario struct {
	name       string
	plan       FaultPlan
	crash      CrashPoint
	crashAt    int
	panicAfter int // 0 = no operator panic
	// delta runs the pipeline with incremental (delta) checkpoints on, so
	// the fault hits a checkpoint chain instead of self-contained snapshots.
	delta bool
	// lsmNative runs every operator on an LSM backend with SSTable-native
	// snapshots, so saves carry linked-file manifests instead of state
	// images. Restarted incarnations open fresh LSM dirs — recovery must
	// come entirely from the checkpoint store, as on a replacement worker.
	lsmNative bool
	// fullEvery, when nonzero, pins Config.FullSnapshotEvery.
	fullEvery int
	// armAfterCheckpoint, when nonzero, holds the panic injector back until
	// the first incarnation has completed this checkpoint; panicAfter then
	// counts elements from that point on.
	armAfterCheckpoint int64
	// wantRestart requires at least one supervised restart (crash/panic
	// scenarios); scenarios that must survive in-place set it false.
	wantRestart bool
}

// armedRelay hands elements to the panic-injecting wrapper only once armed
// is set; before that they go straight to the relay.
type armedRelay struct {
	core.Operator // the injector-wrapped relay
	relay         core.Operator
	armed         *atomic.Bool
}

func (a armedRelay) ProcessElement(e core.Event, ctx core.Context) error {
	if a.armed.Load() {
		return a.Operator.ProcessElement(e, ctx)
	}
	return a.relay.ProcessElement(e, ctx)
}

// configMutator builds the Config hook for the scenario's checkpoint mode.
func (sc matrixScenario) configMutator(t *testing.T) func(*core.Config) {
	if !sc.delta && !sc.lsmNative {
		return nil
	}
	base := t.TempDir()
	var seq atomic.Int64
	return func(c *core.Config) {
		c.DeltaCheckpoints = sc.delta
		c.FullSnapshotEvery = sc.fullEvery
		if sc.lsmNative {
			c.LSMNativeSnapshots = true
			c.BackendFactory = func(node string, instance int) (state.Backend, error) {
				dir := filepath.Join(base, fmt.Sprintf("%s-%d-inc%d", node, instance, seq.Add(1)))
				return state.NewLSMBackend(dir, 0)
			}
		}
	}
}

func (sc matrixScenario) run(t *testing.T, ctx context.Context, events []core.Event, want []string) {
	t.Helper()
	inner, err := core.NewFileSnapshotStore(filepath.Join(t.TempDir(), "chk"))
	if err != nil {
		t.Fatal(err)
	}
	store := Wrap(inner, sc.plan).Arm(sc.crash, sc.crashAt)
	var inj *PanicInjector
	var wrapRelay func(core.OperatorFactory) core.OperatorFactory
	var armed atomic.Bool
	if sc.panicAfter > 0 {
		inj = NewPanicInjector(sc.panicAfter)
		armed.Store(sc.armAfterCheckpoint == 0)
		wrapRelay = func(fac core.OperatorFactory) core.OperatorFactory {
			return func() core.Operator {
				relay := fac()
				injected := inj.Wrap(func() core.Operator { return relay })()
				return armedRelay{Operator: injected, relay: relay, armed: &armed}
			}
		}
	}
	var lastJob *core.Job
	onStart := func(attempt int, job *core.Job) {
		lastJob = job
		store.SetKill(func() { job.Fail(ErrInjectedCrash) })
		if attempt == 0 && sc.armAfterCheckpoint > 0 {
			go func() {
				select {
				case <-job.WhenCheckpoint(sc.armAfterCheckpoint):
					armed.Store(true)
				case <-ctx.Done():
				}
			}()
		}
	}
	out, rep, err := ha.RunSupervised(ctx, pipelineFactory(events, wrapRelay, sc.configMutator(t)), store,
		ha.RestartStrategy{MaxRestarts: 4, Delay: 2 * time.Millisecond}, onStart)
	if err != nil {
		t.Fatalf("supervised run failed (report %+v): %v", rep, err)
	}

	if got := signature(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("output diverged from fault-free run:\n got %d results %v\nwant %d results %v",
			len(got), got, len(want), want)
	}
	if sc.wantRestart && rep.Restarts == 0 {
		t.Fatalf("scenario expected a restart, got report %+v (stats %+v)", rep, store.Stats())
	}
	if !sc.wantRestart && rep.Restarts != 0 {
		t.Fatalf("scenario should survive in place, got %d restarts (failures %v)", rep.Restarts, rep.Failures)
	}
	if sc.crash != CrashNone && store.Stats().Crashes != 1 {
		t.Fatalf("armed crash fired %d times, want exactly 1", store.Stats().Crashes)
	}
	if sc.panicAfter > 0 && !inj.Fired() {
		t.Fatal("panic injector never fired")
	}
	// Every scenario whose store faults exhausted the retry budget must have
	// aborted (not killed) those checkpoints.
	if n := sc.plan.FailSaveCount; n > 0 && sc.crash == CrashNone {
		if lastJob == nil || lastJob.AbortedCheckpoints() == 0 {
			t.Fatalf("save-error burst should abort at least one checkpoint, job reported %d", lastJob.AbortedCheckpoints())
		}
	}
	verifyLatestRestorable(t, inner)
}

// TestCrashMatrix asserts exactly-once output equality against a fault-free
// run for every injected failure point: mid-save crash (with torn partial
// write), crash between the last Save and Complete, crash mid-restore,
// store-error bursts longer than the retry budget, intermittent torn saves,
// slow storage, and operator panics.
func TestCrashMatrix(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	events := pipelineEvents()
	want := baseline(t, ctx, events)

	scenarios := []matrixScenario{
		// Killed during the second checkpoint's saves, after a torn prefix of
		// the snapshot reached disk.
		{name: "crash-mid-save", crash: CrashMidSave, crashAt: 8, wantRestart: true},
		// Killed after every snapshot of checkpoint 2 landed but before its
		// metadata committed: Latest() must fall back to checkpoint 1.
		{name: "crash-pre-complete", crash: CrashPreComplete, crashAt: 1, wantRestart: true},
		// A panic brings the job down mid-stream; the first restore is then
		// killed while reading its snapshots, forcing a second restore.
		{name: "crash-mid-restore", crash: CrashMidRestore, crashAt: 2, panicAfter: 600, wantRestart: true},
		// An I/O error burst longer than the retry budget: the checkpoints
		// abort but the job survives in place and later checkpoints succeed.
		{name: "save-error-burst", plan: FaultPlan{FailSaveFrom: 2, FailSaveCount: 9, SaveLatency: 100 * time.Microsecond}},
		// Intermittent torn writes: the failing save leaves a truncated file
		// behind; the retry must overwrite it and Latest() must stay clean.
		{name: "torn-save-intermittent", plan: FaultPlan{FailSaveEvery: 7, TornSave: true}},
		// Plain operator panic, recovered from the latest checkpoint.
		{name: "operator-panic", panicAfter: 500, wantRestart: true},
		// Killed during a *delta* save, after a torn prefix of the delta
		// reached disk: the torn link must never commit, and recovery from
		// the intact chain must replay exactly once.
		{name: "crash-mid-delta-save", delta: true, crash: CrashMidDeltaSave, crashAt: 2, wantRestart: true},
		// A panic forces a restore whose Latest is a delta; the restart is
		// then killed while loading an *ancestor* of the chain, forcing a
		// second chain resolution. Latest is a delta by construction, not by
		// timing: only checkpoint 1 is full, and the panic is held back until
		// checkpoint 3 (a delta on 2 on 1) has completed.
		{name: "crash-mid-chain-restore", delta: true, fullEvery: 1000, crash: CrashMidChainRestore, crashAt: 1,
			armAfterCheckpoint: 3, panicAfter: 1, wantRestart: true},
		// Intermittent torn writes against a checkpoint chain: aborted delta
		// checkpoints must not corrupt later links or the restore path.
		{name: "delta-torn-save-intermittent", delta: true, plan: FaultPlan{FailSaveEvery: 7, TornSave: true}},
		// SSTable-native checkpoints: killed mid-save while snapshots are
		// linked-file manifests; the replacement incarnation starts on empty
		// LSM dirs and must rebuild purely from the store's linked files.
		{name: "native-crash-mid-save", lsmNative: true, crash: CrashMidSave, crashAt: 8, wantRestart: true},
		// Delta chains layered on SSTable-native fulls, recovered across an
		// operator panic with no crash-point assist.
		{name: "native-delta-panic", delta: true, lsmNative: true, panicAfter: 500, wantRestart: true},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) { sc.run(t, ctx, events, want) })
	}
}

// TestCrashMatrixRandomized draws seeded random crash points and fault
// schedules, asserting the same output-equality invariant on each. The seed
// is fixed so failures reproduce.
func TestCrashMatrixRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized matrix skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	events := pipelineEvents()
	want := baseline(t, ctx, events)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		// Alternate checkpoint modes outside the rng stream so the fault
		// draws stay identical to earlier seeds.
		sc := matrixScenario{name: fmt.Sprintf("rand-%d", i), delta: i%2 == 1}
		switch rng.Intn(3) {
		case 0:
			sc.crash = CrashMidSave
			sc.crashAt = rng.Intn(12)
			sc.wantRestart = true
		case 1:
			sc.crash = CrashPreComplete
			sc.crashAt = rng.Intn(3)
			sc.wantRestart = true
		case 2:
			sc.panicAfter = 400 + rng.Intn(400)
			sc.wantRestart = true
			if rng.Intn(2) == 0 {
				sc.crash = CrashMidRestore
				sc.crashAt = rng.Intn(4)
			}
		}
		if rng.Intn(2) == 0 {
			sc.plan.TornSave = true
			sc.plan.FailSaveEvery = 5 + rng.Intn(10)
		}
		t.Run(sc.name, func(t *testing.T) { sc.run(t, ctx, events, want) })
	}
}

// TestFaultyStoreSchedules pins the injector's own semantics: windows,
// every-N, one-shot crashes, and torn forwarding.
func TestFaultyStoreSchedules(t *testing.T) {
	inner := core.NewMemorySnapshotStore()
	fs := Wrap(inner, FaultPlan{
		FailSaveFrom:  1,
		FailSaveCount: 2,
		TornSave:      true,
		FailLoadFrom:  0,
		FailLoadCount: 1,
	})

	if err := fs.Save(1, "a", []byte("0123456789")); err != nil {
		t.Fatalf("save #0 must pass: %v", err)
	}
	if err := fs.Save(1, "b", []byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatalf("save #1 must fail injected, got %v", err)
	}
	// The torn prefix reached the inner store.
	if data, err := inner.Load(1, "b"); err != nil || string(data) != "01234" {
		t.Fatalf("torn save should leave a half-written snapshot, got %q err %v", data, err)
	}
	if err := fs.Save(1, "b", []byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatal("save #2 still inside the failure window")
	}
	if err := fs.Save(1, "b", []byte("0123456789")); err != nil {
		t.Fatalf("save #3 past the window must pass: %v", err)
	}

	if _, err := fs.Load(1, "a"); !errors.Is(err, ErrInjected) {
		t.Fatal("load #0 must fail injected")
	}
	if _, err := fs.Load(1, "a"); err != nil {
		t.Fatalf("load #1 must pass: %v", err)
	}

	st := fs.Stats()
	if st.Saves != 4 || st.SaveFaults != 2 || st.TornWrites != 2 || st.Loads != 2 || st.LoadFaults != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}

	// One-shot crash: fires once, then the store behaves.
	fired := 0
	fs2 := Wrap(core.NewMemorySnapshotStore(), FaultPlan{}).Arm(CrashPreComplete, 0)
	fs2.SetKill(func() { fired++ })
	meta := core.CheckpointMeta{ID: 1}
	if err := fs2.Complete(meta); !errors.Is(err, ErrInjected) {
		t.Fatal("armed complete must fail")
	}
	if err := fs2.Complete(meta); err != nil {
		t.Fatalf("crash is one-shot, second complete must pass: %v", err)
	}
	if fired != 1 {
		t.Fatalf("kill switch fired %d times, want 1", fired)
	}
	if got := fs2.Stats().Crashes; got != 1 {
		t.Fatalf("crash count: %d", got)
	}

	// File-link forwarding: over a memory store (no linking) the wrapper must
	// report the sentinel so instances fall back to embedding file bytes.
	if err := fs.LinkFile(1, "a/x.sst", "/no/such/file"); !errors.Is(err, core.ErrFileLinkUnsupported) {
		t.Fatalf("LinkFile over a non-linking store: %v", err)
	}
	if _, err := fs.LinkedPath(1, "a/x.sst"); !errors.Is(err, core.ErrFileLinkUnsupported) {
		t.Fatalf("LinkedPath over a non-linking store: %v", err)
	}
}

// TestCrashPointString keeps the matrix output readable.
func TestCrashPointString(t *testing.T) {
	for p, want := range map[CrashPoint]string{
		CrashNone: "none", CrashMidSave: "mid-save", CrashPreComplete: "pre-complete", CrashMidRestore: "mid-restore",
		CrashPostSavepoint: "post-savepoint", CrashPreRescaleComplete: "pre-rescale-complete",
		CrashMidDeltaSave: "mid-delta-save", CrashMidChainRestore: "mid-chain-restore",
	} {
		if got := p.String(); got != want {
			t.Fatalf("CrashPoint(%d).String() = %q, want %q", p, got, want)
		}
	}
	if !strings.Contains(fmt.Sprintf("%v", CrashMidSave), "mid-save") {
		t.Fatal("CrashPoint must format via String")
	}
}
