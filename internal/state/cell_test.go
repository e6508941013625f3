package state

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
)

// The cell tests write window-like state: a *float64 or *int64 accumulator
// under map state "win", key "k", sub-key "w".

func putCell(b Backend, v float64) {
	b.SetCurrentKey("k")
	c := v
	b.Map("win").Put("w", &c)
}

// mutateAfterGet gets k's cell and sets it to v without a Put, as the window
// operator does.
func mutateAfterGet(t *testing.T, b Backend, v float64) {
	t.Helper()
	b.SetCurrentKey("k")
	acc, ok := b.Map("win").Get("w")
	c, isCell := acc.(*float64)
	if !ok || !isCell {
		t.Fatalf("Get returned %#v/%v, want the cell that was put", acc, ok)
	}
	*c = v
}

func wantWin(t *testing.T, b Backend, want float64, after string) {
	t.Helper()
	b.SetCurrentKey("k")
	got, ok := b.Map("win").Get("w")
	if c, isCell := got.(*float64); isCell {
		got = *c
	}
	if !ok || got != want {
		t.Fatalf("after %s: got %v/%v, want %v", after, got, ok, want)
	}
}

func mustSnapshot(t *testing.T, b Backend) []byte {
	t.Helper()
	data, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCellMutatedAfterGetIsCaptured: a cell mutated after a Get, with no Put,
// reaches every image taken afterwards — a snapshot, a delta, an export, and
// on LSM the spill of a cache over its budget. Each backend's case fails
// without the dirty-on-Get rule: the memory and changelog backends through
// the delta, the LSM backend through every check.
func TestCellMutatedAfterGetIsCaptured(t *testing.T) {
	const n = 8
	forEachBackend(t, func(t *testing.T, open func(int) Backend) {
		// Snapshot and Restore. The first snapshot settles the LSM cache, so
		// the Get below finds a clean slot.
		b := open(n)
		putCell(b, 1)
		mustSnapshot(t, b)
		mutateAfterGet(t, b, 2)
		r := open(n)
		if err := r.Restore(mustSnapshot(t, b)); err != nil {
			t.Fatal(err)
		}
		wantWin(t, r, 2, "Snapshot and Restore")

		// SnapshotDelta with tracking on.
		b = open(n)
		d := b.(DeltaBackend)
		d.SetDeltaTracking(true)
		putCell(b, 1)
		full := mustSnapshot(t, b)
		d.MarkFull(1)
		mutateAfterGet(t, b, 3)
		delta, ok, err := d.SnapshotDelta(1, 2)
		if err != nil || !ok {
			t.Fatalf("SnapshotDelta: ok=%v err=%v", ok, err)
		}
		r = open(n)
		if err := r.Restore(full); err != nil {
			t.Fatal(err)
		}
		if err := r.(DeltaBackend).ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		wantWin(t, r, 3, "SnapshotDelta and ApplyDelta")

		// ExportGroups and ImportGroups.
		b = open(n)
		putCell(b, 1)
		mustSnapshot(t, b)
		mutateAfterGet(t, b, 4)
		data, err := b.ExportGroups([]int{KeyGroupFor("k", n)})
		if err != nil {
			t.Fatal(err)
		}
		r = open(n)
		if err := r.ImportGroups(data); err != nil {
			t.Fatal(err)
		}
		wantWin(t, r, 4, "ExportGroups and ImportGroups")

		// On LSM, a spill: other keys' writes push the cache over the
		// memtable budget, and admit writes it out and empties it.
		lb, isLSM := open(n).(*LSMBackend)
		if !isLSM {
			return
		}
		putCell(lb, 1)
		mustSnapshot(t, lb)
		mutateAfterGet(t, lb, 5)
		kColl := dirtyKey{"win", "k"}
		for i := 0; lb.maps[kColl] != nil; i++ {
			if i > 1<<20 {
				t.Fatal("the cache never spilled")
			}
			lb.SetCurrentKey("filler-" + strconv.Itoa(i))
			lb.Map("win").Put("w", float64(i))
		}
		wantWin(t, lb, 5, "a spill")
	})
}

// TestCellImagesMatchScalars: state written as cells gives byte-identical
// snapshots, exports and delta ops to the same state written as scalars, on
// every backend, and the changelog logs a cell's scalar, not the pointer. Gob
// encodes a map in its iteration order, so byte identity is checked on
// single-entry state; larger state is compared decoded.
func TestCellImagesMatchScalars(t *testing.T) {
	const n = 8
	f, i := 2.5, int64(7)
	for _, tc := range []struct {
		name         string
		cell, scalar func() any
	}{
		{"float64", func() any { c := f; return &c }, func() any { return f }},
		{"int64", func() any { c := i; return &c }, func() any { return i }},
	} {
		for _, kind := range []string{"map", "value"} {
			t.Run(tc.name+"-"+kind, func(t *testing.T) {
				forEachBackend(t, func(t *testing.T, open func(int) Backend) {
					images := func(v any) [3][]byte {
						b := open(n)
						d := b.(DeltaBackend)
						d.SetDeltaTracking(true)
						d.MarkFull(1)
						b.SetCurrentKey("k")
						if kind == "map" {
							b.Map("s").Put("w", v)
						} else {
							b.Value("s").Set(v)
						}
						snap := mustSnapshot(t, b)
						export, err := b.ExportGroups([]int{KeyGroupFor("k", n)})
						if err != nil {
							t.Fatal(err)
						}
						delta, ok, err := d.SnapshotDelta(1, 2)
						if err != nil || !ok {
							t.Fatalf("SnapshotDelta: ok=%v err=%v", ok, err)
						}
						return [3][]byte{snap, export, delta}
					}
					got, want := images(tc.cell()), images(tc.scalar())
					for j, what := range []string{"snapshot", "export", "delta"} {
						if !bytes.Equal(got[j], want[j]) {
							t.Fatalf("%s of a cell differs from the scalar's:\n% x\n% x", what, got[j], want[j])
						}
					}
					img, err := DecodeImage(got[0])
					if err != nil {
						t.Fatal(err)
					}
					var v any = img.Groups[KeyGroupFor("k", n)]["s"]["k"]
					if kind == "map" {
						v = v.(map[string]any)["w"]
					}
					if v != tc.scalar() {
						t.Fatalf("a cell's image decodes as %#v (%T), want %#v", v, v, tc.scalar())
					}
				})
			})
		}
	}

	t.Run("many-entries", func(t *testing.T) {
		forEachBackend(t, func(t *testing.T, open func(int) Backend) {
			image := func(cells bool) Image {
				b := open(n)
				for k := 0; k < 20; k++ {
					b.SetCurrentKey("key-" + string(rune('a'+k)))
					for w := int64(0); w < 3; w++ {
						sum, cnt := float64(k)*1.5+float64(w), int64(k)+w
						var s, c any = sum, cnt
						if cells {
							s, c = &sum, &cnt
						}
						b.Map("sums").Put(string(rune('0'+w)), s)
						b.Map("counts").Put(string(rune('0'+w)), c)
					}
				}
				img, err := DecodeImage(mustSnapshot(t, b))
				if err != nil {
					t.Fatal(err)
				}
				return img
			}
			if got, want := image(true), image(false); !reflect.DeepEqual(got, want) {
				t.Fatalf("image of cells decodes to\n%v\nwant\n%v", got, want)
			}
		})
	})

	t.Run("changelog", func(t *testing.T) {
		logOf := func(v any) *Changelog {
			b := NewChangelogBackend(n, NewChangelog())
			b.SetCurrentKey("k")
			b.Value("s").Set(v)
			return b.Log()
		}
		c := f
		cellLog, scalarLog := logOf(&c), logOf(f)
		c = 99 // a mutation after the Set must not rewrite the logged op
		got, err := cellLog.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := scalarLog.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("changelog of a cell differs from the scalar's:\n% x\n% x", got, want)
		}
	})
}
