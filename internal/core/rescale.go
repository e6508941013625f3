package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/state"
)

// RescaleStats reports the state-movement cost of a rescale (E13).
type RescaleStats struct {
	// OldParallelism and NewParallelism are the instance counts before and
	// after the rescale.
	OldParallelism int
	NewParallelism int
	// StateBytes is the total keyed-state volume redistributed.
	StateBytes int64
	// Timers is the number of timers redistributed.
	Timers int
}

// RescaleCheckpoint rewrites the snapshots of one operator node inside a
// completed checkpoint for a new parallelism, redistributing keyed state and
// timers by key group (§3.3/§4.2 Elasticity & Reconfiguration). The result is
// stored as a new checkpoint `toCP`; all other nodes' snapshots are copied
// verbatim. A job built with the new parallelism can then RestoreFrom(toCP).
//
// Operators carrying Snapshotter custom state cannot be rescaled — keep
// rescalable state in the managed backend.
func RescaleCheckpoint(store SnapshotStore, fromCP, toCP int64, nodeName string, newParallelism, numGroups int) (RescaleStats, error) {
	var stats RescaleStats
	if newParallelism < 1 {
		return stats, fmt.Errorf("core: rescale to parallelism %d", newParallelism)
	}
	if numGroups <= 0 {
		numGroups = state.DefaultKeyGroups
	}
	ids, err := store.Instances(fromCP)
	if err != nil {
		return stats, err
	}

	var oldIDs []string
	var passthrough []string
	for _, id := range ids {
		if name, _, ok := splitInstanceID(id); ok && name == nodeName {
			oldIDs = append(oldIDs, id)
		} else {
			passthrough = append(passthrough, id)
		}
	}
	if len(oldIDs) == 0 {
		return stats, fmt.Errorf("core: checkpoint %d has no instances of node %q", fromCP, nodeName)
	}
	stats.OldParallelism = len(oldIDs)
	stats.NewParallelism = newParallelism

	// Merge all old state images and timers.
	merged := state.Image{NumGroups: numGroups, Groups: make(map[int]map[string]map[string]any)}
	var allTimers []timerEntry
	for _, id := range oldIDs {
		raw, err := store.Load(fromCP, id)
		if err != nil {
			return stats, err
		}
		snap, err := decodeInstanceSnapshot(raw)
		if err != nil {
			return stats, fmt.Errorf("core: rescale %s: %w", id, err)
		}
		if len(snap.Custom) > 0 {
			return stats, fmt.Errorf("core: node %q instance %s has custom snapshot state; cannot rescale", nodeName, id)
		}
		// Rescaling redistributes a decoded state image across a new key-group
		// assignment; a delta payload (no image, only changed slots) or a
		// file-native payload (state lives in linked SSTables) cannot be split
		// that way. Savepoints are always full serialized images, so requiring
		// one here is the documented contract, not a new restriction.
		if snap.DeltaBase > 0 || len(snap.Files) > 0 || len(snap.FileData) > 0 {
			return stats, fmt.Errorf("core: node %q instance %s: checkpoint %d is not a full serialized snapshot; rescale from a savepoint", nodeName, id, fromCP)
		}
		img, err := state.DecodeImage(snap.State)
		if err != nil {
			return stats, fmt.Errorf("core: rescale %s: %w", id, err)
		}
		// A non-empty image must declare the fan-out its keys were hashed
		// under. NumGroups == 0 with state present means the snapshot was
		// produced outside the managed backends (or corrupted): redistributing
		// it under this rescale's group count would route keys to instances
		// that will never look them up. An empty image with NumGroups == 0 is
		// fine — it is what an instance that held no state snapshots.
		if img.NumGroups == 0 && len(img.Groups) > 0 {
			return stats, fmt.Errorf("core: rescale %s: image carries %d key groups but declares no fan-out; cannot verify key placement", id, len(img.Groups))
		}
		if img.NumGroups != 0 && img.NumGroups != numGroups {
			return stats, fmt.Errorf("core: rescale %s: image has %d key groups, want %d", id, img.NumGroups, numGroups)
		}
		// Deep-merge per (group, state, key). Old instances own disjoint group
		// ranges in a well-formed checkpoint, but nothing enforces that here —
		// snapshots may come from overlapping incarnations or hand-built
		// images — so a plain `merged.Groups[g] = names` would silently drop
		// every earlier instance's keys for an overlapping group. Inner maps
		// are copied, not aliased, so the sub-images written below never share
		// structure with the decoded inputs (or with the caller's maps in
		// tests). On a per-key conflict the later instance wins — store
		// ordering (sorted instance IDs) makes that deterministic.
		for g, names := range img.Groups {
			if g < 0 || g >= numGroups {
				return stats, fmt.Errorf("core: rescale %s: key group %d out of range [0,%d)", id, g, numGroups)
			}
			dst := merged.Groups[g]
			if dst == nil {
				dst = make(map[string]map[string]any, len(names))
				merged.Groups[g] = dst
			}
			for name, kv := range names {
				dkv := dst[name]
				if dkv == nil {
					dkv = make(map[string]any, len(kv))
					dst[name] = dkv
				}
				for k, v := range kv {
					dkv[k] = v
				}
			}
		}
		ts := newTimerService()
		if err := ts.restore(snap.Timers); err != nil {
			return stats, err
		}
		ts.forEach(func(e timerEntry) { allTimers = append(allTimers, e) })
	}
	stats.Timers = len(allTimers)

	// Write new instance snapshots, each owning its contiguous group range.
	newIDs := make([]string, 0, newParallelism)
	for i := 0; i < newParallelism; i++ {
		lo, hi := state.GroupRange(numGroups, newParallelism, i)
		sub := state.Image{NumGroups: numGroups, Groups: make(map[int]map[string]map[string]any)}
		for g := lo; g < hi; g++ {
			if names, ok := merged.Groups[g]; ok {
				sub.Groups[g] = names
			}
		}
		stateImg, err := state.EncodeImage(sub)
		if err != nil {
			return stats, err
		}
		ts := newTimerService()
		for _, e := range allTimers {
			if g := state.KeyGroupFor(e.Key, numGroups); g >= lo && g < hi {
				ts.register(e.TS, e.Key)
			}
		}
		timerImg, err := ts.snapshot()
		if err != nil {
			return stats, err
		}
		data, err := encodeInstanceSnapshot(instanceSnapshot{State: stateImg, Timers: timerImg})
		if err != nil {
			return stats, err
		}
		id := fmt.Sprintf("%s-%d", nodeName, i)
		if err := store.Save(toCP, id, data); err != nil {
			return stats, err
		}
		stats.StateBytes += int64(len(data))
		newIDs = append(newIDs, id)
	}

	// Copy the untouched instances.
	var total int64 = stats.StateBytes
	for _, id := range passthrough {
		raw, err := store.Load(fromCP, id)
		if err != nil {
			return stats, err
		}
		if err := store.Save(toCP, id, raw); err != nil {
			return stats, err
		}
		total += int64(len(raw))
	}
	meta := CheckpointMeta{
		ID:          toCP,
		JobName:     fmt.Sprintf("rescale(%s->%d)", nodeName, newParallelism),
		Rescaled:    true,
		InstanceIDs: append(passthrough, newIDs...),
		Bytes:       total,
	}
	if err := store.Complete(meta); err != nil {
		return stats, err
	}
	return stats, nil
}

// NodeParallelismIn counts the instances of nodeName recorded in a checkpoint,
// i.e. the parallelism a job must be rebuilt with to RestoreFrom it. Zero
// means the checkpoint holds no instances of that node. ha.Supervisor uses
// this to roll back to a checkpoint's parallelism after a crash mid-rescale,
// when the checkpoint it recovers from may predate or postdate the
// reconfiguration.
func NodeParallelismIn(meta CheckpointMeta, nodeName string) int {
	n := 0
	for _, id := range meta.InstanceIDs {
		if name, _, ok := splitInstanceID(id); ok && name == nodeName {
			n++
		}
	}
	return n
}

// splitInstanceID splits "name-3" into ("name", 3). Node names may themselves
// contain dashes; the index is the suffix after the final dash.
func splitInstanceID(id string) (name string, idx int, ok bool) {
	i := strings.LastIndexByte(id, '-')
	if i <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return "", 0, false
	}
	return id[:i], n, true
}
