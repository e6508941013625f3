package core

import (
	"strings"
	"testing"

	"repro/internal/state"
)

// saveStateSnapshot hand-builds an instance snapshot carrying the given state
// image and stores it under (cp, id) — the harness for feeding
// RescaleCheckpoint images a running job would never produce on its own
// (overlapping groups, missing fan-out, out-of-range groups).
func saveStateSnapshot(t *testing.T, store SnapshotStore, cp int64, id string, img state.Image) {
	t.Helper()
	stateData, err := state.EncodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeInstanceSnapshot(instanceSnapshot{State: stateData})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(cp, id, raw); err != nil {
		t.Fatal(err)
	}
}

func loadStateImage(t *testing.T, store SnapshotStore, cp int64, id string) state.Image {
	t.Helper()
	raw, err := store.Load(cp, id)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeInstanceSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	img, err := state.DecodeImage(snap.State)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func groups(m map[int]map[string]map[string]any) map[int]map[string]map[string]any {
	if m == nil {
		return map[int]map[string]map[string]any{}
	}
	return m
}

func TestRescaleMergesOverlappingGroups(t *testing.T) {
	// Two old instances both carry key group 3 — disjoint keys under the
	// same state name, plus each an exclusive state name. A correct merge
	// keeps all of it; the old `merged.Groups[g] = names` overwrite kept only
	// the lexicographically-last instance's map.
	const numGroups = 8
	store := NewMemorySnapshotStore()
	saveStateSnapshot(t, store, 1, "count-0", state.Image{
		NumGroups: numGroups,
		Groups: map[int]map[string]map[string]any{
			3: {
				"totals": {"alpha": 1},
				"only0":  {"x": 10},
			},
		},
	})
	saveStateSnapshot(t, store, 1, "count-1", state.Image{
		NumGroups: numGroups,
		Groups: map[int]map[string]map[string]any{
			3: {
				"totals": {"beta": 2},
			},
			5: {
				"totals": {"gamma": 3},
			},
		},
	})
	if err := store.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"count-0", "count-1"}}); err != nil {
		t.Fatal(err)
	}

	stats, err := RescaleCheckpoint(store, 1, 2, "count", 1, numGroups)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OldParallelism != 2 || stats.NewParallelism != 1 {
		t.Fatalf("stats: %+v", stats)
	}

	img := loadStateImage(t, store, 2, "count-0")
	g3 := groups(img.Groups)[3]
	if g3 == nil {
		t.Fatal("merged image lost group 3 entirely")
	}
	if v, ok := g3["totals"]["alpha"]; !ok || v != 1 {
		t.Fatalf("overlapping group overwrote instance 0's keys: totals=%v", g3["totals"])
	}
	if v, ok := g3["totals"]["beta"]; !ok || v != 2 {
		t.Fatalf("merge lost instance 1's keys: totals=%v", g3["totals"])
	}
	if v, ok := g3["only0"]["x"]; !ok || v != 10 {
		t.Fatalf("merge lost a state name present in only one instance: %v", g3)
	}
	if v, ok := groups(img.Groups)[5]["totals"]["gamma"]; !ok || v != 3 {
		t.Fatalf("merge lost non-overlapping group 5: %v", img.Groups[5])
	}
}

func TestRescaleConflictLastInstanceWins(t *testing.T) {
	// The same (group, state, key) in two old images is a malformed
	// checkpoint, but the merge must still be deterministic: instances are
	// visited in the store's sorted order, so the later one wins.
	const numGroups = 4
	store := NewMemorySnapshotStore()
	for i, val := range []int{100, 200} {
		saveStateSnapshot(t, store, 1, "op-"+string(rune('0'+i)), state.Image{
			NumGroups: numGroups,
			Groups:    map[int]map[string]map[string]any{2: {"s": {"k": val}}},
		})
	}
	if err := store.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"op-0", "op-1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := RescaleCheckpoint(store, 1, 2, "op", 2, numGroups); err != nil {
		t.Fatal(err)
	}
	// Group 2 of 4 lands on new instance 1 (GroupRange splits [0,2) / [2,4)).
	img := loadStateImage(t, store, 2, "op-1")
	if v := groups(img.Groups)[2]["s"]["k"]; v != 200 {
		t.Fatalf("conflict resolution not deterministic: got %v, want 200 (last sorted instance)", v)
	}
}

func TestRescaleRejectsImageWithoutFanout(t *testing.T) {
	// NumGroups == 0 with state present means the keys' group assignment is
	// unknown; redistributing under an assumed fan-out would misroute them.
	store := NewMemorySnapshotStore()
	saveStateSnapshot(t, store, 1, "op-0", state.Image{
		NumGroups: 0,
		Groups:    map[int]map[string]map[string]any{1: {"s": {"k": 1}}},
	})
	if err := store.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"op-0"}}); err != nil {
		t.Fatal(err)
	}
	_, err := RescaleCheckpoint(store, 1, 2, "op", 2, 8)
	if err == nil {
		t.Fatal("rescale accepted an image with state but no declared key-group fan-out")
	}
	if !strings.Contains(err.Error(), "fan-out") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// An empty image with NumGroups == 0 (an instance that held no state) is
	// fine and must not be rejected.
	store2 := NewMemorySnapshotStore()
	saveStateSnapshot(t, store2, 1, "op-0", state.Image{Groups: map[int]map[string]map[string]any{}})
	if err := store2.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"op-0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := RescaleCheckpoint(store2, 1, 2, "op", 2, 8); err != nil {
		t.Fatalf("rescale rejected a legitimately empty image: %v", err)
	}
}

func TestRescaleRejectsOutOfRangeGroup(t *testing.T) {
	// A group index past the declared fan-out would be silently dropped by
	// the redistribution loop (state loss) — reject instead.
	store := NewMemorySnapshotStore()
	saveStateSnapshot(t, store, 1, "op-0", state.Image{
		NumGroups: 8,
		Groups:    map[int]map[string]map[string]any{9: {"s": {"k": 1}}},
	})
	if err := store.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"op-0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := RescaleCheckpoint(store, 1, 2, "op", 2, 8); err == nil {
		t.Fatal("rescale accepted a group index outside the declared fan-out")
	}
}

func TestRescaleMetaMarksRescaled(t *testing.T) {
	store := NewMemorySnapshotStore()
	saveStateSnapshot(t, store, 1, "op-0", state.Image{
		NumGroups: 8,
		Groups:    map[int]map[string]map[string]any{1: {"s": {"k": 1}}},
	})
	if err := store.Complete(CheckpointMeta{ID: 1, InstanceIDs: []string{"op-0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := RescaleCheckpoint(store, 1, 2, "op", 3, 8); err != nil {
		t.Fatal(err)
	}
	meta, ok := store.Latest()
	if !ok || meta.ID != 2 {
		t.Fatalf("latest = %+v, %v", meta, ok)
	}
	if !meta.Rescaled {
		t.Fatal("rescaled checkpoint not marked Rescaled in its meta")
	}
	if got := NodeParallelismIn(meta, "op"); got != 3 {
		t.Fatalf("NodeParallelismIn(op) = %d, want 3", got)
	}
	if got := NodeParallelismIn(meta, "absent"); got != 0 {
		t.Fatalf("NodeParallelismIn(absent) = %d, want 0", got)
	}
}
