package state

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// TestKeyGroupForMatchesFNV pins KeyGroupFor to hash/fnv's FNV-1a, so every
// key group, and with it every image layout, stays where it was.
func TestKeyGroupForMatchesFNV(t *testing.T) {
	fixed := []struct {
		key       string
		numGroups int
		want      int
	}{
		{"", 8, 5}, {"", 128, 69}, {"", 1000, 261},
		{"a", 8, 4}, {"a", 128, 44}, {"a", 1000, 220},
		{"k0", 8, 6}, {"k0", 128, 46}, {"k0", 1000, 870},
		{"key-4095", 8, 5}, {"key-4095", 128, 21}, {"key-4095", 1000, 533},
		{"user-17", 8, 1}, {"user-17", 128, 121}, {"user-17", 1000, 969},
		{"\x00", 8, 7}, {"\x00", 128, 31}, {"\x00", 1000, 351},
		{"\xff\xfe", 8, 0}, {"\xff\xfe", 128, 16}, {"\xff\xfe", 1000, 896},
		{"a|b", 8, 6}, {"a|b", 128, 86}, {"a|b", 1000, 806},
		{"the quick brown fox", 8, 2}, {"the quick brown fox", 128, 66}, {"the quick brown fox", 1000, 906},
	}
	for _, c := range fixed {
		if got := KeyGroupFor(c.key, c.numGroups); got != c.want {
			t.Errorf("KeyGroupFor(%q, %d) = %d, want %d", c.key, c.numGroups, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		n := 1 + rng.Intn(4096)
		h := fnv.New32a()
		h.Write(buf)
		if want, got := int(h.Sum32()%uint32(n)), KeyGroupFor(string(buf), n); got != want {
			t.Fatalf("KeyGroupFor(%x, %d) = %d, hash/fnv says %d", buf, n, got, want)
		}
	}
}

// mapRows counts the rows of map state name: those its index holds and
// those its group maps hold.
func mapRows(b *MemoryBackend, name string) (indexed, grouped int) {
	for _, g := range b.groups {
		grouped += len(g[name])
	}
	return len(b.mapHandles[name].index), grouped
}

// TestMapStateChurnKeepsRowsBounded: 100 windows, each over fresh keys that
// fire and empty their rows, leave the index and the group maps at O(live
// keys), not O(keys ever seen).
func TestMapStateChurnKeepsRowsBounded(t *testing.T) {
	const keysPerWindow = 500
	b := NewMemoryBackend(16)
	m := b.Map("windows")
	for w := 0; w < 100; w++ {
		sub := fmt.Sprint(w)
		for k := 0; k < keysPerWindow; k++ {
			b.SetCurrentKey(fmt.Sprintf("w%d-k%d", w, k))
			m.Put(sub, int64(k))
		}
		for k := 0; k < keysPerWindow; k++ {
			b.SetCurrentKey(fmt.Sprintf("w%d-k%d", w, k))
			if _, ok := m.Get(sub); !ok {
				t.Fatalf("window %d key %d lost its entry", w, k)
			}
			m.Remove(sub)
		}
	}
	indexed, grouped := mapRows(b, "windows")
	if indexed > 2*keysPerWindow+minPrune || grouped != indexed {
		t.Fatalf("after 100 windows of %d fresh keys: %d rows indexed, %d in group maps; want both equal and at most %d",
			keysPerWindow, indexed, grouped, 2*keysPerWindow+minPrune)
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewMemoryBackend(16).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, empty) {
		t.Fatal("a backend whose every row is empty does not snapshot as an empty one")
	}
}

// TestEmptiedMapReadsAsAbsent: a key whose map state was emptied by Remove
// (or Clear) is indistinguishable from one that never had any: Snapshot,
// ExportGroups and ForEachKey give the same bytes and pairs, and a delta
// spells it as a delete.
func TestEmptiedMapReadsAsAbsent(t *testing.T) {
	const n = 8
	build := func(emptied, cleared bool) *MemoryBackend {
		b := NewMemoryBackend(n)
		b.SetDeltaTracking(true)
		b.MarkFull(1)
		m := b.Map("w")
		if emptied {
			b.SetCurrentKey("gone")
			m.Put("s1", int64(1))
			m.Put("s2", int64(1))
			m.Remove("s2")
			m.Remove("s1")
		}
		if cleared {
			b.SetCurrentKey("cleared")
			m.Put("s1", int64(1))
			m.Clear()
		}
		b.SetCurrentKey("live")
		m.Put("s", int64(2))
		return b
	}
	never, emptied := build(false, false), build(true, true)

	same := func(what string, f func(b *MemoryBackend) ([]byte, error)) {
		t.Helper()
		want, err := f(never)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f(emptied)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs for emptied keys", what)
		}
	}
	same("Snapshot", (*MemoryBackend).Snapshot)
	for _, key := range []string{"gone", "cleared", "live"} {
		g := []int{KeyGroupFor(key, n)}
		same("ExportGroups of "+key+"'s group", func(b *MemoryBackend) ([]byte, error) { return b.ExportGroups(g) })
	}
	pairs := func(b *MemoryBackend) map[string]any {
		out := map[string]any{}
		b.ForEachKey("w", func(k string, v any) bool { out[k] = v; return true })
		return out
	}
	if got, want := pairs(emptied), pairs(never); !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEachKey: emptied backend yields %v, want %v", got, want)
	}

	delta, ok, err := emptied.SnapshotDelta(1, 2)
	if err != nil || !ok {
		t.Fatalf("SnapshotDelta: ok=%v err=%v", ok, err)
	}
	want, err := EncodeDeltaOps([]ChangelogOp{
		{Name: "w", Key: "cleared", Delete: true},
		{Name: "w", Key: "gone", Delete: true},
		{Name: "w", Key: "live", Value: map[string]any{"s": int64(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(delta, want) {
		ops, _ := DecodeDeltaOps(delta)
		t.Fatalf("delta of emptied keys: %+v", ops)
	}

	// The emptied rows are reused: a key's next window finds its row.
	emptied.SetCurrentKey("gone")
	m := emptied.Map("w")
	m.Put("s3", int64(3))
	if keys := m.Keys(); !reflect.DeepEqual(keys, []string{"s3"}) {
		t.Fatalf("refilled row holds %q", keys)
	}
}
