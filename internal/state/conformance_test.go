package state

import (
	"fmt"
	"reflect"
	"testing"
)

// backendKinds builds one fresh backend of every implementation with the
// given key-group count, for the contract every one of them must meet.
var backendKinds = []struct {
	name string
	open func(t *testing.T, numGroups int) Backend
}{
	{"memory", func(t *testing.T, n int) Backend { return NewMemoryBackend(n) }},
	{"lsm", func(t *testing.T, n int) Backend {
		b, err := NewLSMBackend(t.TempDir(), n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Dispose() })
		return b
	}},
	{"changelog", func(t *testing.T, n int) Backend { return NewChangelogBackend(n, NewChangelog()) }},
}

func forEachBackend(t *testing.T, fn func(t *testing.T, open func(numGroups int) Backend)) {
	for _, k := range backendKinds {
		t.Run(k.name, func(t *testing.T) {
			fn(t, func(n int) Backend { return k.open(t, n) })
		})
	}
}

func mustGet(t *testing.T, b Backend, key string, want any) {
	t.Helper()
	b.SetCurrentKey(key)
	got, ok := b.Value("v").Get()
	if want == nil {
		if ok {
			t.Fatalf("key %q: want no value, got %v", key, got)
		}
		return
	}
	if !ok || got != want {
		t.Fatalf("key %q: got %v/%v, want %v", key, got, ok, want)
	}
}

// TestRestoreReplaces: Restore gives exactly the snapshot's contents; a key
// written after the snapshot must not survive it (with real deletes a
// survivor is state the checkpoint says does not exist).
func TestRestoreReplaces(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(int) Backend) {
		b := open(8)
		b.SetCurrentKey("k1")
		b.Value("v").Set(int64(1))
		b.Map("m").Put("a", "x")
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b.SetCurrentKey("k2")
		b.Value("v").Set(int64(2))
		b.SetCurrentKey("k1")
		b.Value("v").Set(int64(11))
		b.Map("m").Put("b", "y")
		b.List("l").Append("late")
		if err := b.Restore(snap); err != nil {
			t.Fatal(err)
		}
		mustGet(t, b, "k2", nil)
		mustGet(t, b, "k1", int64(1))
		if keys := b.Map("m").Keys(); !reflect.DeepEqual(keys, []string{"a"}) {
			t.Fatalf("map keys after restore: %v", keys)
		}
		if l := b.List("l").Get(); len(l) != 0 {
			t.Fatalf("list after restore: %v", l)
		}
	})
}

// TestImportGroupsContract: an import replaces the whole of each group it
// carries, leaves the other groups alone, and refuses an image that does not
// fit the backend's key-group layout.
func TestImportGroupsContract(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(int) Backend) {
		const n = 8
		// Two keys in one group, one key in another.
		byGroup := map[int][]string{}
		for i := 0; len(byGroup) < 2 || len(byGroup[KeyGroupFor("k0", n)]) < 2; i++ {
			k := fmt.Sprintf("k%d", i)
			byGroup[KeyGroupFor(k, n)] = append(byGroup[KeyGroupFor(k, n)], k)
		}
		g := KeyGroupFor("k0", n)
		inA, inB := byGroup[g][0], byGroup[g][1]
		var other string
		for og, keys := range byGroup {
			if og != g {
				other = keys[0]
			}
		}

		src := open(n)
		src.SetCurrentKey(inA)
		src.Value("v").Set("imported")
		img, err := src.ExportGroups([]int{g})
		if err != nil {
			t.Fatal(err)
		}

		dst := open(n)
		for _, k := range []string{inA, inB, other} {
			dst.SetCurrentKey(k)
			dst.Value("v").Set("old")
		}
		if err := dst.ImportGroups(img); err != nil {
			t.Fatal(err)
		}
		mustGet(t, dst, inA, "imported")
		mustGet(t, dst, inB, nil) // same group, not in the image: replaced away
		mustGet(t, dst, other, "old")

		if err := open(2 * n).ImportGroups(img); err == nil {
			t.Fatal("an image with a different key-group count must be rejected")
		}
		stray, err := EncodeImage(Image{NumGroups: n, Groups: map[int]map[string]map[string]any{
			n + 3: {"v": {"k": int64(1)}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := open(n).ImportGroups(stray); err == nil {
			t.Fatal("an image carrying an out-of-range group must be rejected")
		}
		if _, err := src.ExportGroups([]int{n}); err == nil {
			t.Fatal("exporting an out-of-range group must be rejected")
		}
	})
}

// TestCompositeKeysDoNotAlias: no choice of state name, key and sub-key —
// empty, holding the separator bytes a naive layout would use, or one a
// prefix of another — lets one slot read another's entries.
func TestCompositeKeysDoNotAlias(t *testing.T) {
	parts := []string{"", "a", "a|b", "b|c", "c", "|", "a\x00", "\x00", "\xff", "a\xff", "w", "ww", "a|b|c", "\x01a"}
	forEachBackend(t, func(t *testing.T, open func(int) Backend) {
		b := open(4)
		id := func(name, key, sub string) string { return fmt.Sprintf("%q/%q/%q", name, key, sub) }
		for _, name := range parts {
			for _, key := range parts {
				b.SetCurrentKey(key)
				b.Value("v" + name).Set(id(name, key, ""))
				b.List("l" + name).Append(id(name, key, "0"))
				b.List("l" + name).Append(id(name, key, "1"))
				for _, sub := range parts {
					b.Map("m"+name).Put(sub, id(name, key, sub))
				}
			}
		}
		check := func(b Backend) {
			t.Helper()
			for _, name := range parts {
				for _, key := range parts {
					b.SetCurrentKey(key)
					if v, ok := b.Value("v" + name).Get(); !ok || v != id(name, key, "") {
						t.Fatalf("value %s reads %v/%v", id(name, key, ""), v, ok)
					}
					want := []any{id(name, key, "0"), id(name, key, "1")}
					if l := b.List("l" + name).Get(); !reflect.DeepEqual(l, want) {
						t.Fatalf("list %s reads %v", id(name, key, ""), l)
					}
					m := b.Map("m" + name)
					if keys := m.Keys(); len(keys) != len(parts) {
						t.Fatalf("map %s has keys %q", id(name, key, ""), keys)
					}
					for _, sub := range parts {
						if v, ok := m.Get(sub); !ok || v != id(name, key, sub) {
							t.Fatalf("map entry %s reads %v/%v", id(name, key, sub), v, ok)
						}
					}
				}
			}
		}
		check(b)
		// And the same through a snapshot, where the LSM backend re-reads its
		// composite keys from the tree.
		snap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored := open(4)
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}
		check(restored)

		// Removing one slot's entries leaves its look-alikes in place.
		b.SetCurrentKey("a")
		b.Map("m").Remove("b|c")
		b.Map("mw").Clear()
		b.Value("v").Clear()
		b.SetCurrentKey("a|b")
		if v, ok := b.Map("m").Get("c"); !ok || v != id("", "a|b", "c") {
			t.Fatalf(`removing ("a","b|c") disturbed ("a|b","c"): %v/%v`, v, ok)
		}
		b.SetCurrentKey("a")
		if keys := b.Map("mww").Keys(); len(keys) != len(parts) {
			t.Fatalf(`clearing map "mw" disturbed map "mww": %q`, keys)
		}
		if _, ok := b.Value("va").Get(); !ok {
			t.Fatal(`clearing value "v" disturbed value "va"`)
		}
	})
}
