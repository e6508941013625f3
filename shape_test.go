package repro

// Shape tests: each pins one comparative claim of the survey (DESIGN.md §1)
// as who wins and by at least what margin, and logs the table EXPERIMENTS.md
// quotes. `go test -run TestShape -v .` regenerates every table. Only E10
// compares timings: per-thread CPU time, best of three runs, skipped under
// the race detector.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eventtime"
	"repro/internal/gen"
	"repro/internal/ha"
	"repro/internal/lineage"
	"repro/internal/load"
	"repro/internal/state"
	"repro/internal/synopsis"
	"repro/internal/window"
)

func skipTimingUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("compares kernel speed, which the race detector distorts")
	}
}

// bestOf3 returns the smallest of three measurements.
func bestOf3(measure func() float64) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		best = math.Min(best, measure())
	}
	return best
}

// TestShapeE3SlidingAggregation — "No pane, no gain" (§2.1): naive
// re-evaluation costs O(range) per element, two-stacks O(1) amortised, also
// for the non-invertible min. Cost is counted as Combine calls per event,
// through a wrapping AggFn, so the bounds do not depend on the box's load;
// ns/event is logged beside it.
func TestShapeE3SlidingAggregation(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded, and its ~200M Combine calls take ~15x longer under the race detector")
	}
	const events, slide = 100_000, 1_000
	measure := func(fn window.AggFn, mk func(window.AggFn) window.SlidingAggregator) (calls, ns float64) {
		var n int64
		counted := fn
		counted.Combine = func(a, b float64) float64 {
			n++
			return fn.Combine(a, b)
		}
		ns = bestOf3(func() float64 {
			n = 0
			agg := mk(counted)
			rng := rand.New(rand.NewSource(7))
			ts := int64(0)
			start := time.Now()
			for i := 0; i < events; i++ {
				ts += int64(rng.Intn(20))
				agg.Add(ts, rng.Float64())
			}
			return float64(time.Since(start).Nanoseconds()) / events
		})
		return float64(n) / events, ns
	}
	ranges := []int64{10_000, 60_000, 300_000}
	t.Logf("%-4s %6s %14s %14s %14s %12s %12s %14s", "fn", "range",
		"naive calls/ev", "panes calls/ev", "2stacks calls/ev", "naive ns/ev", "panes ns/ev", "2stacks ns/ev")
	for _, fn := range []window.AggFn{window.Sum, window.Min} {
		naive := make([]float64, len(ranges))
		stacks := make([]float64, len(ranges))
		for i, rng := range ranges {
			var naiveNs, panesNs, stacksNs, panes float64
			naive[i], naiveNs = measure(fn, func(f window.AggFn) window.SlidingAggregator { return window.NewNaiveSliding(rng, slide, f) })
			panes, panesNs = measure(fn, func(f window.AggFn) window.SlidingAggregator { return window.NewPaneSliding(rng, slide, f) })
			stacks[i], stacksNs = measure(fn, func(f window.AggFn) window.SlidingAggregator { return window.NewTwoStacksSliding(rng, slide, f) })
			t.Logf("%-4s %5ds %14.1f %14.1f %16.1f %12.1f %12.1f %14.1f", fn.Name, rng/1000,
				naive[i], panes, stacks[i], naiveNs, panesNs, stacksNs)
		}
		last := len(ranges) - 1
		if naive[last] < 3*stacks[last] {
			t.Errorf("%s at range %ds: naive %.1f calls/ev is not >= 3x two-stacks %.1f", fn.Name, ranges[last]/1000, naive[last], stacks[last])
		}
		naiveGrowth, stacksGrowth := naive[last]/naive[0], stacks[last]/stacks[0]
		if naiveGrowth < 3 || stacksGrowth > naiveGrowth/2 {
			t.Errorf("%s from %ds to %ds: naive grew %.1fx (want >= 3x), two-stacks %.1fx (want at most half of naive's)",
				fn.Name, ranges[0]/1000, ranges[last]/1000, naiveGrowth, stacksGrowth)
		}
	}
}

// TestShapeE4OOPvsBuffering — §2.2 (Li et al. 2008): buffering for in-order
// processing holds O(rate × disorder) whole events, out-of-order processing
// one partial per open window, for identical results.
func TestShapeE4OOPvsBuffering(t *testing.T) {
	const events, windowMs = 100_000, 1_000
	disorders := []int64{0, 100, 1_000, 5_000, 10_000}
	iop := make([]int, len(disorders))
	oop := make([]int, len(disorders))
	t.Logf("%-12s %16s %14s %8s %12s", "disorder ms", "IOP max buffered", "OOP max state", "equal", "IOP/OOP mem")
	for d, disorder := range disorders {
		spec := gen.Spec{N: events, Keys: 64, IntervalMs: 2, DisorderMs: disorder, Seed: 3}

		// IOP: a reorder buffer releases by watermark into an in-order
		// tumbling counter.
		iopCounts := map[int64]int64{}
		buf := eventtime.NewReorderBuffer(0)
		wm := eventtime.NewBoundedOutOfOrderness(disorder)
		for i := 0; i < events; i++ {
			e := spec.At(int64(i))
			buf.Push(e.Timestamp, e.Timestamp)
			wm.OnEvent(e.Timestamp)
			if i%32 == 0 {
				for _, v := range buf.Release(wm.OnPeriodic()) {
					iopCounts[v.(int64)/windowMs]++
				}
			}
		}
		for _, v := range buf.Flush() {
			iopCounts[v.(int64)/windowMs]++
		}

		// OOP: disordered events update window partials directly; a window
		// closes once the watermark passes its end.
		oopCounts := map[int64]int64{}
		open := map[int64]int64{}
		wm = eventtime.NewBoundedOutOfOrderness(disorder)
		for i := 0; i < events; i++ {
			e := spec.At(int64(i))
			open[e.Timestamp/windowMs]++
			wm.OnEvent(e.Timestamp)
			oop[d] = max(oop[d], len(open))
			if i%32 == 0 {
				bound := wm.OnPeriodic()
				for w, c := range open {
					if (w+1)*windowMs <= bound {
						oopCounts[w] = c
						delete(open, w)
					}
				}
			}
		}
		for w, c := range open {
			oopCounts[w] = c
		}

		equal := len(iopCounts) == len(oopCounts)
		for w, c := range iopCounts {
			equal = equal && oopCounts[w] == c
		}
		iop[d] = buf.MaxBuffered
		t.Logf("%-12d %16d %14d %8v %11.0fx", disorder, iop[d], oop[d], equal, float64(iop[d])/float64(oop[d]))
		if !equal {
			t.Errorf("disorder %d ms: IOP and OOP window counts differ", disorder)
		}
	}
	first, last := 0, len(disorders)-1
	if iop[last] < 10*iop[first] {
		t.Errorf("IOP buffer should grow with disorder: %d -> %d events", iop[first], iop[last])
	}
	if oop[last] > 20*oop[first] {
		t.Errorf("OOP state should stay near-constant: %d -> %d windows", oop[first], oop[last])
	}
	if iop[last] < 100*oop[last] {
		t.Errorf("at %d ms disorder IOP holds %d events, not >= 100x OOP's %d partials", disorders[last], iop[last], oop[last])
	}
}

// TestShapeE5ProgressMechanisms — §2.3: punctuations, watermarks and
// heartbeats give the same bound at the same control-message cost; slack
// (Aurora) sends none but drops stragglers; frontiers (Naiad) are exact.
func TestShapeE5ProgressMechanisms(t *testing.T) {
	const events, disorder, every = 100_000, 500, 64
	spec := gen.Spec{N: events, Keys: 16, IntervalMs: 2, DisorderMs: disorder, Seed: 5}
	evs := make([]int64, events)
	for i := range evs {
		evs[i] = spec.At(int64(i)).Timestamp
	}

	type row struct {
		name    string
		ctl     int
		avgLag  float64
		dropped int64
	}
	// periodic drives one mechanism that announces a bound every `every`
	// events, returning its control-message count and mean lag behind the
	// largest timestamp seen.
	periodic := func(name string, observe func(ts int64), announce func(maxSeen int64) int64) row {
		ctl, lagSum, maxSeen := 0, 0.0, int64(0)
		for i, ts := range evs {
			observe(ts)
			maxSeen = max(maxSeen, ts)
			if i%every == every-1 {
				ctl++
				lagSum += float64(maxSeen - announce(maxSeen))
			}
		}
		return row{name, ctl, lagSum / float64(ctl), 0}
	}

	pt := eventtime.NewPunctuationTracker(1)
	punct := periodic("punctuation", func(int64) {}, func(maxSeen int64) int64 {
		pt.Observe(0, eventtime.Punctuation{TS: maxSeen - disorder - 1})
		return pt.Current()
	})
	wg := eventtime.NewBoundedOutOfOrderness(disorder)
	wmark := periodic("watermark", func(ts int64) { wg.OnEvent(ts) }, func(int64) int64 { return wg.OnPeriodic() })
	hb := eventtime.NewHeartbeatGenerator(disorder/2, disorder/2)
	heart := periodic("heartbeat", func(int64) {}, func(maxSeen int64) int64 {
		hb.ReportSourceClock("s", maxSeen)
		return hb.Heartbeat()
	})

	// Slack: a fixed 64-position reorder allowance (≈128 ms here, below the
	// disorder bound), no control messages.
	sl := eventtime.NewSlackBuffer(every)
	for _, ts := range evs {
		sl.Push(ts, ts)
	}
	sl.Flush()
	slack := row{"slack", 0, 0, sl.Dropped}

	// Frontier: every event adds a pointstamp occurrence and retires it once
	// processed (two updates per event); after each batch of `every` events
	// the frontier must equal the oldest outstanding timestamp.
	f := eventtime.NewFrontier()
	fr := row{name: "frontier"}
	inexact := 0
	for i, ts := range evs {
		f.Add(eventtime.Pointstamp{Node: 0, Time: ts}, 1)
		fr.ctl += 2
		if i%every == every-1 {
			batch := evs[i-every+1 : i+1]
			oldest := batch[0]
			for _, b := range batch {
				oldest = min(oldest, b)
			}
			if f.FrontierAt(0) != oldest {
				inexact++
			}
			for _, b := range batch {
				f.Add(eventtime.Pointstamp{Node: 0, Time: b}, -1)
			}
		}
	}

	t.Logf("%-12s %10s %12s %9s", "mechanism", "ctl msgs", "avg lag ms", "dropped")
	for _, r := range []row{punct, wmark, heart, slack, fr} {
		lag := "-" // slack and frontier announce no bound to lag behind
		if r.avgLag > 0 {
			lag = fmt.Sprintf("%.0f", r.avgLag)
		}
		t.Logf("%-12s %10d %12s %9d", r.name, r.ctl, lag, r.dropped)
	}
	t.Logf("frontier equal to the oldest outstanding timestamp at %d of %d checks", events/every-inexact, events/every)

	for _, r := range []row{wmark, heart} {
		if r.ctl != punct.ctl {
			t.Errorf("%s sent %d control messages, punctuation %d", r.name, r.ctl, punct.ctl)
		}
		if math.Abs(r.avgLag-punct.avgLag) > 0.01*disorder {
			t.Errorf("%s lags %.1f ms, punctuation %.1f ms: bounds differ", r.name, r.avgLag, punct.avgLag)
		}
	}
	if slack.ctl != 0 || slack.dropped == 0 {
		t.Errorf("slack: %d control messages and %d dropped, want 0 and > 0", slack.ctl, slack.dropped)
	}
	if inexact != 0 {
		t.Errorf("frontier differed from the oldest outstanding timestamp at %d checks", inexact)
	}
}

// TestShapeE6IncrementalCheckpoint — §3.1: an LSM backend checkpoints
// incrementally, shipping only the tables written since the last checkpoint
// instead of its whole manifest.
func TestShapeE6IncrementalCheckpoint(t *testing.T) {
	const keys, writes = 5_000, 50_000
	b, err := state.NewLSMBackend(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Dispose()
	// checkpoint writes one round of updates and returns the manifest the
	// checkpoint references, by file name, with each table's size.
	checkpoint := func(round int) map[string]int64 {
		for i := 0; i < writes; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%d", i%keys))
			b.Value("v").Set(int64(round*writes + i))
		}
		files, err := b.SnapshotFiles()
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[string]int64{}
		for _, f := range files {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			sizes[f] = fi.Size()
		}
		return sizes
	}
	first := checkpoint(0)
	second := checkpoint(1)
	var newFiles int
	var newBytes, fullBytes int64
	for f, size := range second {
		fullBytes += size
		if _, shipped := first[f]; !shipped {
			newFiles++
			newBytes += size
		}
	}
	t.Logf("%-24s %8s %12s", "checkpoint", "tables", "bytes")
	t.Logf("%-24s %8d %12d", "full (second manifest)", len(second), fullBytes)
	t.Logf("%-24s %8d %12d", "incremental", newFiles, newBytes)
	if newFiles != 1 || newBytes >= fullBytes {
		t.Errorf("incremental checkpoint ships %d tables, %d of %d bytes; want only the one new table", newFiles, newBytes, fullBytes)
	}
}

// TestShapeE7Recovery — §3.2: active standby recovers without replay at
// twice the resources; passive standby costs 1x and replays the records
// since its last checkpoint; lineage recomputes at most interval−1 batches.
// Every mode delivers each result exactly once.
//
// The passive bound holds under sustained load below checkpoint capacity,
// so the jobs are paced at about 40 records/ms. Unpaced, the source outruns
// checkpoint completion (requests made while a checkpoint is in flight are
// coalesced into it) and the replay reached nearly the whole stream. Paced, the
// replay is at most the interval plus the records that flow while the next
// checkpoint completes and the kill propagates, bounded here by a quarter
// interval.
func TestShapeE7Recovery(t *testing.T) {
	const events = 4_000
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	factory := func(interval int) ha.JobFactory {
		return func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
			evs := make([]core.Event, events)
			for i := range evs {
				evs[i] = core.Event{Key: fmt.Sprintf("k%d", i%7), Timestamp: int64(i), Value: int64(1)}
			}
			b := core.NewBuilder(core.Config{
				Name:            "recovery",
				SnapshotStore:   store,
				CheckpointEvery: interval,
				ChannelCapacity: 8,
			})
			b.Source("src", core.NewSliceSourceFactory(evs)).
				Map("paced", func(e core.Event) (core.Event, bool) {
					if e.Timestamp%40 == 0 {
						time.Sleep(time.Millisecond)
					}
					return e, true
				}).
				Sink("out", sink.Factory())
			return b.Build()
		}
	}
	replayBound := func(interval int) int { return interval + interval/4 }

	interval := events / 10
	t.Logf("%-18s %8s %10s %10s %10s", "mode", "output", "dups", "replayed", "resources")
	out, active, err := ha.RunActiveStandby(ctx, factory(interval), events/2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-18s %8d %10d %10d %9dx", active.Mode, len(out), active.Duplicates, active.ReplayedEvents, active.ResourceUnits)
	if len(out) != events || active.ResourceUnits != 2 || active.ReplayedEvents != 0 {
		t.Errorf("active standby: %d outputs, %dx resources, %d replayed; want %d, 2x, 0", len(out), active.ResourceUnits, active.ReplayedEvents, events)
	}
	out, passive, err := ha.RunPassiveStandby(ctx, factory(interval), core.NewMemorySnapshotStore(), events/2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-18s %8d %10d %10d %9dx", passive.Mode, len(out), passive.Duplicates, passive.ReplayedEvents, passive.ResourceUnits)
	if len(out) != events || passive.ResourceUnits != 1 || passive.ReplayedEvents > replayBound(interval) {
		t.Errorf("passive standby: %d outputs, %dx resources, %d replayed; want %d, 1x, <= %d",
			len(out), passive.ResourceUnits, passive.ReplayedEvents, events, replayBound(interval))
	}

	// Lineage: a failure at every batch in turn; each recovery recomputes
	// from the last lineage checkpoint.
	const batchSize, everyBatches = events / 40, 8
	evs := make([]core.Event, events)
	for i := range evs {
		evs[i] = core.Event{Timestamp: int64(i), Value: int64(1)}
	}
	worst := 0
	for failAt := 1; failAt < events/batchSize; failAt++ {
		j, err := lineage.NewJob(lineage.Config{BatchSize: batchSize, CheckpointEveryBatches: everyBatches},
			evs, nil, func(st any, in []core.Event) ([]core.Event, any) {
				total := st.(int64) + int64(len(in))
				return []core.Event{{Value: total}}, total
			}, int64(0))
		if err != nil {
			t.Fatal(err)
		}
		out, err := j.Run(failAt)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != events/batchSize || out[len(out)-1].Value.(int64) != events {
			t.Fatalf("lineage, failure at batch %d: %d batch outputs, want %d ending at a total of %d",
				failAt, len(out), events/batchSize, events)
		}
		worst = max(worst, j.RecomputedBatches)
	}
	t.Logf("%-18s %8d %10s %10d %9dx  (worst of %d failure points: %d batches recomputed, checkpoint every %d)",
		"lineage", events, "-", worst*batchSize, 1, events/batchSize-1, worst, everyBatches)
	if worst > everyBatches-1 {
		t.Errorf("lineage recomputed %d batches, want <= %d", worst, everyBatches-1)
	}

	// Ablation (DESIGN.md §5): shorter checkpoint intervals write more
	// checkpoints and bound the replay tighter. Intervals stay below half
	// the kill point so a checkpoint completes before the failure.
	t.Logf("")
	t.Logf("%-18s %12s %12s %10s", "interval (events)", "checkpoints", "ckpt bytes", "replayed")
	prevCkpts := math.MaxInt
	for _, interval := range []int{events / 50, events / 10, events / 4} {
		store := core.NewMemorySnapshotStore()
		_, r, err := ha.RunPassiveStandby(ctx, factory(interval), store, events/2)
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		completed := store.Completed()
		for _, m := range completed {
			bytes += m.Bytes
		}
		t.Logf("%-18d %12d %12d %10d", interval, len(completed), bytes, r.ReplayedEvents)
		if r.ReplayedEvents > replayBound(interval) {
			t.Errorf("interval %d: replayed %d events, want <= %d", interval, r.ReplayedEvents, replayBound(interval))
		}
		if len(completed) >= prevCkpts {
			t.Errorf("interval %d: %d checkpoints, not fewer than the shorter interval's %d", interval, len(completed), prevCkpts)
		}
		prevCkpts = len(completed)
	}
}

// TestShapeE8Overload — §3.3: under a 2.5x burst, shedding keeps latency low
// by losing tuples, backpressure loses none but queues, elasticity loses
// none and recovers the latency by scaling out.
func TestShapeE8Overload(t *testing.T) {
	res := map[load.Policy]load.SimResult{}
	for _, r := range load.CompareOverloadPolicies(load.SimConfig{
		BaseRate: 100, BurstFactor: 2.5, BurstStart: 50, BurstEnd: 150, Ticks: 300,
		CapacityPerInstance: 120, QueueBound: 500, Instances: 1, MaxInstances: 8, Seed: 7,
	}) {
		t.Log(r)
		res[r.Policy] = r
	}
	for _, p := range []load.Policy{load.PolicyShedRandom, load.PolicyShedSemantic} {
		if res[p].Dropped == 0 {
			t.Errorf("%s dropped nothing under overload", p)
		}
	}
	bp, el := res[load.PolicyBackpressure], res[load.PolicyElastic]
	if bp.Dropped != 0 || el.Dropped != 0 {
		t.Errorf("lossless policies dropped: backpressure %d, elastic %d", bp.Dropped, el.Dropped)
	}
	if 10*el.AvgLatency > bp.AvgLatency {
		t.Errorf("elastic average latency %.2f ticks is not 10x below backpressure's %.2f", el.AvgLatency, bp.AvgLatency)
	}
}

// TestShapeE9Synopses — §3.1: bounded-memory summaries trade orders of
// magnitude of memory for a small error, on heavy-tail traffic (half the
// flows from 10 hot talkers, half over a 200k-address tail).
func TestShapeE9Synopses(t *testing.T) {
	const events = 500_000
	rng := rand.New(rand.NewSource(13))
	exact := map[string]uint64{}
	cm, err := synopsis.NewCountMin(0.001, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	hll, err := synopsis.NewHyperLogLog(12)
	if err != nil {
		t.Fatal(err)
	}
	eh, err := synopsis.NewExpHistogram(60_000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		var k string
		if rng.Intn(2) == 0 {
			k = fmt.Sprintf("hot%d", rng.Intn(10))
		} else {
			k = fmt.Sprintf("tail%d", rng.Intn(200_000))
		}
		exact[k]++
		cm.Add(k, 1)
		hll.Add(k)
		eh.Add(int64(i * 2))
	}
	var top string
	countBytes, distinctBytes := 0, 0
	for k, c := range exact {
		if c > exact[top] {
			top = k
		}
		countBytes += len(k) + 8
		distinctBytes += len(k)
	}
	cmsErr := 100 * float64(cm.Estimate(top)-exact[top]) / float64(exact[top])
	hllErr := 100 * (float64(hll.Estimate()) - float64(len(exact))) / float64(len(exact))
	const inWindow = 60_000 / 2 // one event per 2 ms
	ehErr := 100 * float64(eh.Estimate()-inWindow) / inWindow

	t.Logf("%d flows over %d distinct keys", events, len(exact))
	t.Logf("%-24s %12s %14s %8s", "task", "exact bytes", "synopsis bytes", "error")
	t.Logf("%-24s %12d %14d %7.2f%%", "top talker (CMS)", countBytes, cm.Bytes(), cmsErr)
	t.Logf("%-24s %12d %14d %7.2f%%", "distinct count (HLL)", distinctBytes, hll.Bytes(), hllErr)
	t.Logf("%-24s %12d %14d %7.2f%%", "60 s count (ExpHist)", inWindow*8, eh.Buckets()*16, ehErr)

	if cm.Bytes()*10 > countBytes || cmsErr > 1 {
		t.Errorf("CMS: %d bytes against %d exact at %.2f%% error; want >= 10x smaller at <= 1%%", cm.Bytes(), countBytes, cmsErr)
	}
	if hll.Bytes()*100 > distinctBytes || math.Abs(hllErr) > 3 {
		t.Errorf("HLL: %d bytes against %d exact at %.2f%% error; want >= 100x smaller at <= 3%%", hll.Bytes(), distinctBytes, hllErr)
	}
	if math.Abs(ehErr) > 5 {
		t.Errorf("exponential histogram: %.2f%% error, beyond its 5%% bound", ehErr)
	}
}

// TestShapeE10Vectorized — §4.2 hardware acceleration at CPU scale: a
// branch-free batch window kernel beats the per-record scalar path.
func TestShapeE10Vectorized(t *testing.T) {
	skipTimingUnderRace(t)
	values := make([]float64, 1<<20)
	for i := range values {
		values[i] = float64(i%1000) * 0.5
	}
	// nsPerValue runs one kernel over the stream, draining the trailing
	// partial window as end of stream would, and charges it the CPU time of
	// the thread it ran on, so time spent descheduled on a loaded box is not
	// counted.
	nsPerValue := func(process func([]float64) []float64, flush func() (float64, bool)) (float64, int) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var windows int
		ns := bestOf3(func() float64 {
			start := threadCPU()
			windows = len(process(values))
			if _, ok := flush(); ok {
				windows++
			}
			return float64(threadCPU()-start) / float64(len(values))
		})
		return ns, windows
	}
	t.Logf("%-4s %8s %12s %12s %8s", "fn", "window", "scalar ns/v", "batch ns/v", "speedup")
	for _, fn := range []window.AggFn{window.Sum, window.Min} {
		for _, size := range []int{64, 1024} {
			s := window.NewScalarTumbling(size, fn)
			b := window.NewBatchTumbling(size, fn)
			scalar, sw := nsPerValue(s.Process, s.Flush)
			batch, bw := nsPerValue(b.Process, b.Flush)
			t.Logf("%-4s %8d %12.2f %12.2f %7.1fx", fn.Name, size, scalar, batch, scalar/batch)
			if sw != bw {
				t.Errorf("%s/%d: scalar emitted %d windows, batch %d", fn.Name, size, sw, bw)
			}
			if fn.Name == window.Sum.Name && size == 1024 && scalar < 2*batch {
				t.Errorf("sum/1024: batch kernel %.2f ns/value is not >= 2x faster than scalar %.2f", batch, scalar)
			}
		}
	}
}

// TestShapeE13Rescale — §3.3/§4.2 reconfiguration: a savepoint, key-group
// redistribution and restore at higher parallelism admit only the
// post-savepoint tail, where a restart admits the whole stream; both end
// with exact per-key counts.
func TestShapeE13Rescale(t *testing.T) {
	const events = 20_000
	evs := make([]core.Event, events)
	for i := range evs {
		evs[i] = core.Event{Key: fmt.Sprintf("k%d", i%997), Timestamp: int64(i), Value: int64(1)}
	}
	store := core.NewMemorySnapshotStore()
	// build wires src → mid → keyed count → sink. With savepointAt > 0, the
	// source triggers a savepoint after that many records; otherwise mid
	// counts the records the source admits.
	build := func(par, savepointAt int, admitted *atomic.Int64) (*core.Job, *core.CollectSink) {
		sink := core.NewCollectSink()
		b := core.NewBuilder(core.Config{Name: "e13", SnapshotStore: store})
		var job *core.Job
		src := core.NewSliceSourceFactory(evs)
		if savepointAt > 0 {
			src = savepointAfter(src, savepointAt, &job)
		}
		b.Source("src", src).
			Map("mid", func(e core.Event) (core.Event, bool) {
				if admitted != nil {
					admitted.Add(1)
				}
				return e, true
			}).
			KeyBy(func(e core.Event) string { return e.Key }).
			ProcessWith("count", func() core.Operator { return &shapeCountOp{} }, par).
			Sink("out", sink.Factory())
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		job = j
		return j, sink
	}
	total := func(sink *core.CollectSink) int64 {
		var n int64
		for _, e := range sink.Events() {
			n += e.Value.(int64)
		}
		return n
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	first, _ := build(2, events/2, nil)
	if err := first.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cp := first.LastCheckpoint()
	stats, err := core.RescaleCheckpoint(store, cp, cp+100, "count", 8, state.DefaultKeyGroups)
	if err != nil {
		t.Fatal(err)
	}
	var resumedIn, restartIn atomic.Int64
	resumed, resumedSink := build(8, 0, &resumedIn)
	resumed.RestoreFrom(cp + 100)
	if err := resumed.Run(ctx); err != nil {
		t.Fatal(err)
	}
	restart, restartSink := build(8, 0, &restartIn)
	if err := restart.Run(ctx); err != nil {
		t.Fatal(err)
	}

	t.Logf("rescale %d -> %d instances: %d state bytes, %d timers migrated",
		stats.OldParallelism, stats.NewParallelism, stats.StateBytes, stats.Timers)
	t.Logf("%-18s %16s %14s", "strategy", "records admitted", "total")
	t.Logf("%-18s %16d %14d", "migrate + resume", resumedIn.Load(), total(resumedSink))
	t.Logf("%-18s %16d %14d", "full restart", restartIn.Load(), total(restartSink))
	if n := resumedIn.Load(); n == 0 || n > events-events/2 {
		t.Errorf("resumed job admitted %d records, want the post-savepoint tail (1..%d)", n, events-events/2)
	}
	if n := restartIn.Load(); n != events {
		t.Errorf("restarted job admitted %d records, want all %d", n, events)
	}
	if got := total(resumedSink); got != events {
		t.Errorf("migrate + resume counted %d events, want %d", got, events)
	}
	if got := total(restartSink); got != events {
		t.Errorf("full restart counted %d events, want %d", got, events)
	}
}

// shapeCountOp counts records per key and emits the counts at end of stream.
type shapeCountOp struct{ core.BaseOperator }

func (c *shapeCountOp) ProcessElement(e core.Event, ctx core.Context) error {
	st := ctx.State().Value("count")
	n := int64(0)
	if v, ok := st.Get(); ok {
		n = v.(int64)
	}
	st.Set(n + 1)
	return nil
}

func (c *shapeCountOp) Close(ctx core.Context) error {
	ctx.State().ForEachKey("count", func(key string, v any) bool {
		ctx.Emit(core.Event{Key: key, Value: v})
		return true
	})
	return nil
}
