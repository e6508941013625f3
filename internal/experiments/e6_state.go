package experiments

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/lineage"
	"repro/internal/state"
)

// E6StateBackends compares the state-management designs of §3.1: the
// in-memory ("internally managed") backend, the LSM-tree disk backend, and
// the changelog ("externally managed") backend, on write/read cost, snapshot
// size and recovery path. It also contrasts full vs incremental checkpoints
// on the LSM backend (manifest diffing). Expected shape: memory fastest,
// LSM pays the write-ahead + flush cost but spills beyond RAM and
// checkpoints incrementally; changelog recovery replays the log instead of
// shipping an image.
func E6StateBackends(scale float64) Report {
	rep := Report{ID: "E6", Title: "State backends: memory vs LSM vs changelog; full vs incremental checkpoints (§3.1)"}
	updates := n(scale, 100_000)
	keys := 5_000

	type res struct {
		name          string
		writeNsPerOp  float64
		readNsPerOp   float64
		snapshotBytes int
		recovery      string
	}
	var results []res

	runUpdates := func(b state.Backend) (writeNs, readNs float64) {
		start := time.Now()
		for i := 0; i < updates; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%d", i%keys))
			b.Value("v").Set(int64(i))
		}
		writeNs = float64(time.Since(start).Nanoseconds()) / float64(updates)
		start = time.Now()
		for i := 0; i < updates/4; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%d", i%keys))
			b.Value("v").Get()
		}
		readNs = float64(time.Since(start).Nanoseconds()) / float64(updates/4)
		return writeNs, readNs
	}

	// Memory backend.
	{
		b := state.NewMemoryBackend(0)
		w, r := runUpdates(b)
		img, _ := b.Snapshot()
		results = append(results, res{"memory", w, r, len(img), "restore image"})
	}
	// LSM backend.
	{
		dir, _ := os.MkdirTemp("", "lsm-e6")
		defer os.RemoveAll(dir)
		b, err := state.NewLSMBackend(dir, 0)
		if err == nil {
			w, r := runUpdates(b)
			img, _ := b.Snapshot()
			results = append(results, res{"lsm", w, r, len(img), "restore image or reopen dir"})
			b.Dispose()
		}
	}
	// Changelog backend.
	{
		log := state.NewChangelog()
		b := state.NewChangelogBackend(0, log)
		w, r := runUpdates(b)
		enc, _ := log.Encode()
		preLen := log.Len()
		log.Compact()
		results = append(results, res{"changelog", w, r, len(enc),
			fmt.Sprintf("replay log (%d ops, %d after compaction)", preLen, log.Len())})
	}

	rep.Rows = append(rep.Rows, fmt.Sprintf("%-10s %12s %12s %14s  %s",
		"backend", "write ns/op", "read ns/op", "snapshot B", "recovery path"))
	for _, r := range results {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-10s %12.0f %12.0f %14d  %s",
			r.name, r.writeNsPerOp, r.readNsPerOp, r.snapshotBytes, r.recovery))
	}

	// Incremental checkpoints on the LSM manifest.
	dir, _ := os.MkdirTemp("", "lsm-inc")
	defer os.RemoveAll(dir)
	if b, err := state.NewLSMBackend(dir, 0); err == nil {
		for i := 0; i < updates/2; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%d", i%keys))
			b.Value("v").Set(int64(i))
		}
		first := manifestSet(b)
		for i := updates / 2; i < updates; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%d", i%keys))
			b.Value("v").Set(int64(i))
		}
		second := manifestSet(b)
		newFiles := 0
		for f := range second {
			if !first[f] {
				newFiles++
			}
		}
		rep.Rows = append(rep.Rows, fmt.Sprintf(
			"incremental checkpoint: manifest %d -> %d tables, only %d new files shipped",
			len(first), len(second), newFiles))
		b.Dispose()
	}
	rep.Notes = append(rep.Notes,
		"snapshots use one portable Image format: a memory checkpoint restores into LSM and vice versa")
	return rep
}

// manifestSet takes a file-native snapshot — cache and memtable flushed to an
// immutable table — and returns the tables now composing the state.
func manifestSet(b *state.LSMBackend) map[string]bool {
	m := map[string]bool{}
	files, _ := b.SnapshotFiles()
	for _, f := range files {
		m[f] = true
	}
	return m
}

// E7Recovery reproduces the §3.2 availability comparison: active standby
// (instant failover, 2x resources) vs passive standby (checkpoint restore +
// replay, 1x resources) vs the lineage/micro-batch baseline (recompute from
// the last state checkpoint). Expected shape: active ~0 recovery at double
// cost; passive recovery bounded by checkpoint interval; lineage recomputes
// up to k-1 batches.
func E7Recovery(scale float64) Report {
	rep := Report{ID: "E7", Title: "Fault recovery: active vs passive standby vs lineage baseline (§3.2)"}
	events := n(scale, 4_000)

	fac := func(sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		evs := make([]core.Event, events)
		for i := range evs {
			evs[i] = core.Event{Key: fmt.Sprintf("k%d", i%7), Timestamp: int64(i), Value: int64(1)}
		}
		b := core.NewBuilder(core.Config{
			Name:            "recovery",
			SnapshotStore:   store,
			CheckpointEvery: events / 10,
			ChannelCapacity: 8,
		})
		b.Source("src", core.NewSliceSourceFactory(evs)).
			Map("id", func(e core.Event) (core.Event, bool) { return e, true }).
			Sink("out", sink.Factory())
		return b.Build()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	rep.Rows = append(rep.Rows, fmt.Sprintf("%-18s %8s %10s %12s %10s %10s",
		"mode", "output", "dups", "recovery ms", "replayed", "resources"))

	if out, r, err := ha.RunActiveStandby(ctx, fac, events/2); err == nil {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-18s %8d %10d %12d %10d %9dx",
			r.Mode, len(out), r.Duplicates, r.RecoveryMillis, r.ReplayedEvents, r.ResourceUnits))
	} else {
		rep.Rows = append(rep.Rows, "active-standby FAILED: "+err.Error())
	}
	store := core.NewMemorySnapshotStore()
	if out, r, err := ha.RunPassiveStandby(ctx, fac, store, events/2); err == nil {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-18s %8d %10d %12d %10d %9dx",
			r.Mode, len(out), r.Duplicates, r.RecoveryMillis, r.ReplayedEvents, r.ResourceUnits))
	} else {
		rep.Rows = append(rep.Rows, "passive-standby FAILED: "+err.Error())
	}

	// Lineage baseline: micro-batches with a failure mid-stream.
	{
		evs := make([]core.Event, events)
		for i := range evs {
			evs[i] = core.Event{Timestamp: int64(i), Value: int64(1)}
		}
		j, err := lineage.NewJob(lineage.Config{BatchSize: events / 40, CheckpointEveryBatches: 8},
			evs, nil, func(st any, in []core.Event) ([]core.Event, any) {
				total := st.(int64) + int64(len(in))
				return []core.Event{{Value: total}}, total
			}, int64(0))
		if err == nil {
			out, _ := j.Run(27)
			rep.Rows = append(rep.Rows, fmt.Sprintf("%-18s %8d %10d %12s %10d %9dx",
				"lineage(microbatch)", len(out), 0, "n/a", j.RecomputedBatches*(events/40), 1))
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"lineage recovery recomputed %d batches (checkpoint every 8 batches)", j.RecomputedBatches))
		}
	}
	rep.Notes = append(rep.Notes,
		"active standby: duplicates are the secondary's parallel output, suppressed by the exactly-once dedup stage")

	// Ablation (DESIGN.md §5): checkpoint interval sweep — shorter intervals
	// cost more checkpoints (bytes written in steady state) but bound the
	// replay after a failure; longer intervals invert the trade.
	rep.Rows = append(rep.Rows, "", "ablation: checkpoint interval vs replay-on-failure (passive standby)")
	rep.Rows = append(rep.Rows, fmt.Sprintf("%-20s %14s %16s %12s %14s",
		"interval (events)", "checkpoints", "ckpt bytes", "replayed", "replay bound"))
	// Intervals stay below half the kill point so at least one checkpoint
	// reliably completes before the failure.
	for _, interval := range []int{events / 50, events / 10, events / 4} {
		if interval < 1 {
			interval = 1
		}
		store := core.NewMemorySnapshotStore()
		facI := func(sink *core.CollectSink, st core.SnapshotStore) (*core.Job, error) {
			evs := make([]core.Event, events)
			for i := range evs {
				evs[i] = core.Event{Key: fmt.Sprintf("k%d", i%7), Timestamp: int64(i), Value: int64(1)}
			}
			b := core.NewBuilder(core.Config{
				Name:            "sweep",
				SnapshotStore:   st,
				CheckpointEvery: interval,
				ChannelCapacity: 8,
			})
			b.Source("src", core.NewSliceSourceFactory(evs)).
				Map("id", func(e core.Event) (core.Event, bool) { return e, true }).
				Sink("out", sink.Factory())
			return b.Build()
		}
		_, r, err := ha.RunPassiveStandby(ctx, facI, store, events/2)
		if err != nil {
			// At tiny scales the failure can land before the first
			// checkpoint completes; that is the expected degenerate end of
			// the trade-off, not a harness failure.
			rep.Rows = append(rep.Rows, fmt.Sprintf(
				"%-20d no checkpoint completed before the failure (interval too long for this scale)", interval))
			continue
		}
		var totalBytes int64
		nCkpts := 0
		for _, m := range store.Completed() {
			totalBytes += m.Bytes
			nCkpts++
		}
		// A single run's replay is one draw from [0, interval] (failure
		// point relative to the last checkpoint); report the bound too.
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-20d %14d %16d %12d %14d",
			interval, nCkpts, totalBytes, r.ReplayedEvents, interval))
	}
	return rep
}
