package state

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func mustPanic(t *testing.T, what, wantMsg string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: want a panic, got a normal return", what)
		}
		if !strings.Contains(fmt.Sprint(r), wantMsg) {
			t.Fatalf("%s: panic %q does not mention %q", what, r, wantMsg)
		}
	}()
	fn()
}

// TestLSMReadErrorsAreNotAbsence: a lookup that cannot be answered — the
// table was cut short under the open tree, or the entry carries a tag no
// codec version wrote — must fail the operator (the engine restarts the job
// from its last checkpoint), never read as "no state yet", which would
// silently reset an accumulator.
func TestLSMReadErrorsAreNotAbsence(t *testing.T) {
	t.Run("truncated table", func(t *testing.T) {
		b, err := NewLSMBackend(t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Dispose()
		for i := 0; i < 200; i++ {
			b.SetCurrentKey(fmt.Sprintf("k%03d", i))
			b.Value("v").Set(int64(i))
			b.Map("m").Put("sub", float64(i))
		}
		files, err := b.SnapshotFiles()
		if err != nil || len(files) != 1 {
			t.Fatalf("SnapshotFiles: %v %v", files, err)
		}
		b.resetCache()
		if err := os.Truncate(files[0], 100); err != nil {
			t.Fatal(err)
		}
		b.SetCurrentKey("k100")
		mustPanic(t, "value get", "lsm get", func() { b.Value("v").Get() })
		mustPanic(t, "map get", "lsm get", func() { b.Map("m").Get("sub") })
		mustPanic(t, "map keys", "lsm scan", func() { b.Map("m").Keys() })
		mustPanic(t, "for each key", "lsm scan", func() { b.ForEachKey("v", func(string, any) bool { return true }) })
		if _, err := b.Snapshot(); err == nil {
			t.Fatal("snapshot over a truncated table must fail")
		}
	})
	t.Run("unknown codec tag", func(t *testing.T) {
		b, err := NewLSMBackend(t.TempDir(), 4)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Dispose()
		b.SetCurrentKey("good")
		b.Value("v").Set(int64(1))
		bad := appendStorageKey(nil, KeyGroupFor("bad", 4), kindValue, "v", "bad", "")
		if err := b.Tree().Put(bad, []byte{0xEE, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		b.SetCurrentKey("bad")
		mustPanic(t, "value get", "unknown codec tag", func() { b.Value("v").Get() })
		mustPanic(t, "for each key", "unknown codec tag", func() { b.ForEachKey("v", func(string, any) bool { return true }) })
		if _, err := b.Snapshot(); err == nil || !strings.Contains(err.Error(), "unknown codec tag") {
			t.Fatalf("snapshot over an undecodable entry: %v", err)
		}
		b.SetCurrentKey("good")
		if v, ok := b.Value("v").Get(); !ok || v != int64(1) {
			t.Fatalf("a decodable neighbour reads %v/%v", v, ok)
		}
	})
}

// TestLSMValueStateRejectsCollections: a map[string]any or []any in value
// state would come back from an image as map or list state.
func TestLSMValueStateRejectsCollections(t *testing.T) {
	b, err := NewLSMBackend(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Dispose()
	mustPanic(t, "set map", "use map or list state", func() { b.Value("v").Set(map[string]any{}) })
	mustPanic(t, "set list", "use map or list state", func() { b.Value("v").Set([]any{}) })
}
