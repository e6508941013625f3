package state

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/lsm"
)

var (
	modelKeys = []string{"", "k", "k|x", "kk", "\x00", "other"}
	modelSubs = []string{"", "s", "s|t", "x", "\xff"}
)

// observe reads everything the model test's operations can have written, in
// the form every backend must agree on: absent and empty are the same.
func observe(b Backend) map[string]any {
	out := map[string]any{}
	for _, key := range modelKeys {
		b.SetCurrentKey(key)
		if v, ok := b.Value("v").Get(); ok {
			out[fmt.Sprintf("v/%q", key)] = v
		}
		m := b.Map("m")
		keys := m.Keys()
		sort.Strings(keys)
		for _, sub := range keys {
			v, ok := m.Get(sub)
			if !ok {
				out[fmt.Sprintf("m/%q/%q", key, sub)] = "listed by Keys() but absent"
				continue
			}
			out[fmt.Sprintf("m/%q/%q", key, sub)] = v
		}
		for _, sub := range modelSubs {
			if _, ok := m.Get(sub); ok != (sort.SearchStrings(keys, sub) < len(keys) && keys[sort.SearchStrings(keys, sub)] == sub) {
				out[fmt.Sprintf("m/%q/%q", key, sub)] = "Get and Keys() disagree"
			}
		}
		if l := b.List("l").Get(); len(l) > 0 {
			out[fmt.Sprintf("l/%q", key)] = append([]any(nil), l...)
		}
	}
	return out
}

func mustEqual(t *testing.T, step int, what string, got, want Backend) {
	t.Helper()
	g, w := observe(got), observe(want)
	if !reflect.DeepEqual(g, w) {
		for k, v := range w {
			if !reflect.DeepEqual(g[k], v) {
				t.Errorf("  %s: got %#v, want %#v", k, g[k], v)
			}
		}
		for k, v := range g {
			if _, ok := w[k]; !ok {
				t.Errorf("  %s: got %#v, want nothing", k, v)
			}
		}
		t.Fatalf("step %d (%s): backends differ", step, what)
	}
}

// TestLSMMatchesMemoryUnderRandomOps drives the LSM and the memory backend
// through one seeded sequence of state operations, interleaved with every way
// state leaves and re-enters a backend — snapshot and restore, key-group
// export into the other implementation, delta capture and replay, closing
// and reopening the directory — and requires the two to read alike after
// every step. The memtable budget is small enough that the sequence also
// crosses cache spills, memtable flushes and compactions.
func TestLSMMatchesMemoryUnderRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed) })
	}
}

func runModel(t *testing.T, seed int64) {
	const groups = 4
	opts := lsm.Options{Dir: t.TempDir(), MemtableBytes: 1500, CompactionFanIn: 3}
	open := func(o lsm.Options) *LSMBackend {
		b, err := newLSMBackend(o, groups)
		if err != nil {
			t.Fatal(err)
		}
		b.SetDeltaTracking(true)
		return b
	}
	disk := open(opts)
	defer func() { disk.Dispose() }()
	mem := NewMemoryBackend(groups)
	mem.SetDeltaTracking(true)
	// Followers only ever see checkpoints, each the other implementation's.
	diskFollower := open(lsm.Options{Dir: t.TempDir(), MemtableBytes: 1500, CompactionFanIn: 3})
	defer diskFollower.Dispose()
	memFollower := NewMemoryBackend(groups)

	rng := rand.New(rand.NewSource(seed))
	values := []func() any{
		func() any { return rng.Float64() },
		func() any { return int64(rng.Intn(100)) },
		func() any { return fmt.Sprint("s", rng.Intn(100)) },
		func() any { return rng.Intn(2) == 0 },
		func() any { return []float64{rng.Float64(), 1} },
		func() any { return []int64{int64(rng.Intn(9))} },
		func() any { return codecStruct{Name: "gob", N: int64(rng.Intn(9))} },
	}
	both := func(fn func(b Backend)) { fn(disk); fn(mem) }
	var cp, lastCP int64
	spills, flushes, compactions := 0, 0, 0
	for step := 0; step < 1500; step++ {
		cacheBefore := reflect.ValueOf(disk.vals).Pointer()
		key, sub := modelKeys[rng.Intn(len(modelKeys))], modelSubs[rng.Intn(len(modelSubs))]
		v := values[rng.Intn(len(values))]()
		what := ""
		op := rng.Intn(40)
		switch {
		case op < 8:
			what = "map put"
			both(func(b Backend) { b.SetCurrentKey(key); b.Map("m").Put(sub, v) })
		case op < 12:
			what = "map remove"
			both(func(b Backend) { b.SetCurrentKey(key); b.Map("m").Remove(sub) })
		case op < 13:
			what = "map clear"
			both(func(b Backend) { b.SetCurrentKey(key); b.Map("m").Clear() })
		case op < 15:
			// The window operator's pattern: mutate while ranging over Keys().
			what = "map sweep over Keys()"
			both(func(b Backend) {
				b.SetCurrentKey(key)
				m := b.Map("m")
				keys := m.Keys()
				for i, k := range keys {
					if _, ok := m.Get(k); !ok {
						t.Fatalf("step %d: %q from Keys() vanished mid-iteration", step, k)
					}
					m.Remove(k)
					if i%2 == 0 {
						m.Put(modelSubs[(i+1)%len(modelSubs)], int64(i))
					}
				}
			})
		case op < 20:
			what = "value set"
			both(func(b Backend) { b.SetCurrentKey(key); b.Value("v").Set(v) })
		case op < 22:
			what = "value clear"
			both(func(b Backend) { b.SetCurrentKey(key); b.Value("v").Clear() })
		case op < 31:
			what = "list append"
			both(func(b Backend) { b.SetCurrentKey(key); b.List("l").Append(v) })
		case op < 32:
			what = "list clear"
			both(func(b Backend) { b.SetCurrentKey(key); b.List("l").Clear() })
		case op < 33:
			what = "snapshot, diverge, restore"
			snaps := map[Backend][]byte{}
			both(func(b Backend) {
				snap, err := b.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snaps[b] = snap
				b.SetCurrentKey(key)
				b.Map("m").Put("only-after-snapshot", v)
				b.Value("v").Clear()
				b.List("l").Append(v)
			})
			// Each restores the other implementation's image.
			if err := disk.Restore(snaps[mem]); err != nil {
				t.Fatal(err)
			}
			if err := mem.Restore(snaps[disk]); err != nil {
				t.Fatal(err)
			}
			lastCP = 0 // a restore invalidates delta bases
		case op < 35:
			what = "export groups into the other backend"
			gs := []int{rng.Intn(groups), rng.Intn(groups)}
			fromDisk, err := disk.ExportGroups(gs)
			if err != nil {
				t.Fatal(err)
			}
			fromMem, err := mem.ExportGroups(gs)
			if err != nil {
				t.Fatal(err)
			}
			both(func(b Backend) { b.SetCurrentKey(key); b.Map("m").Put(sub, "overwritten by import") })
			if err := disk.ImportGroups(fromMem); err != nil {
				t.Fatal(err)
			}
			if err := mem.ImportGroups(fromDisk); err != nil {
				t.Fatal(err)
			}
			lastCP = 0
		case op < 38:
			what = "checkpoint to followers"
			cp++
			var fromDisk, fromMem []byte
			delta := false
			if lastCP > 0 && rng.Intn(4) > 0 {
				var okD, okM bool
				var err error
				if fromDisk, okD, err = disk.SnapshotDelta(lastCP, cp); err != nil {
					t.Fatal(err)
				}
				if fromMem, okM, err = mem.SnapshotDelta(lastCP, cp); err != nil {
					t.Fatal(err)
				}
				if okD != okM {
					t.Fatalf("step %d: delta from %d: lsm ok=%v, memory ok=%v", step, lastCP, okD, okM)
				}
				delta = okD
			}
			if delta {
				what = "delta " + what
				if err := diskFollower.ApplyDelta(fromMem); err != nil {
					t.Fatal(err)
				}
				if err := memFollower.ApplyDelta(fromDisk); err != nil {
					t.Fatal(err)
				}
			} else {
				what = "full " + what
				var err error
				if fromDisk, err = disk.Snapshot(); err != nil {
					t.Fatal(err)
				}
				if fromMem, err = mem.Snapshot(); err != nil {
					t.Fatal(err)
				}
				disk.MarkFull(cp)
				mem.MarkFull(cp)
				if err := diskFollower.Restore(fromMem); err != nil {
					t.Fatal(err)
				}
				if err := memFollower.Restore(fromDisk); err != nil {
					t.Fatal(err)
				}
			}
			lastCP = cp
			mustEqual(t, step, what+" (lsm follower)", diskFollower, mem)
			mustEqual(t, step, what+" (memory follower)", memFollower, mem)
		case op < 39:
			what = "reopen from directory"
			if err := disk.Dispose(); err != nil {
				t.Fatal(err)
			}
			flushes, compactions = flushes+disk.tree.FlushCount, compactions+disk.tree.CompactCount
			disk = open(opts)
			lastCP = 0 // the tracker does not survive; the next checkpoint is full
		default:
			continue
		}
		if op < 32 && reflect.ValueOf(disk.vals).Pointer() != cacheBefore {
			spills++ // a plain operation found the cache over budget and emptied it
		}
		if disk.cacheBytes < 0 || (len(disk.vals)+len(disk.maps)+len(disk.lists) == 0) != (disk.cacheBytes == 0) {
			t.Fatalf("step %d (%s): cache accounting drifted: %d bytes for %d/%d/%d entries",
				step, what, disk.cacheBytes, len(disk.vals), len(disk.maps), len(disk.lists))
		}
		mustEqual(t, step, what, disk, mem)
	}
	flushes, compactions = flushes+disk.tree.FlushCount, compactions+disk.tree.CompactCount
	if spills == 0 || flushes == 0 || compactions == 0 {
		t.Fatalf("the sequence must cross cache spills, flushes and compactions (spills=%d flushes=%d compactions=%d)",
			spills, flushes, compactions)
	}
}
