package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }

func writeTestWAL(t *testing.T, dir string, n int) {
	t.Helper()
	w, _, err := openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%03d", i))
		v := []byte(fmt.Sprintf("val-%03d", i))
		if err := w.append([]Write{{Key: k, Value: v}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWALTornTail(t *testing.T) {
	dir := t.TempDir()
	writeTestWAL(t, dir, 5)
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a prefix of the final record.
	for cut := 1; cut < 13+14; cut += 3 {
		torn := data[:len(data)-cut]
		records, valid := decodeWAL(torn)
		if len(records) != 4 {
			t.Fatalf("cut %d: want 4 records from torn log, got %d", cut, len(records))
		}
		if valid > len(torn) {
			t.Fatalf("cut %d: valid prefix %d exceeds data %d", cut, valid, len(torn))
		}
		if rest, n := decodeWAL(torn[:valid]); n != valid || len(rest) != 4 {
			t.Fatalf("cut %d: valid prefix is not self-delimiting (n=%d records=%d)", cut, n, len(rest))
		}
	}
}

func TestDecodeWALCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	writeTestWAL(t, dir, 3)
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's value; decode must stop at the
	// first record rather than accept the torn frame.
	recLen := 13 + 7 + 7
	data[recLen+recLen-1] ^= 0xff
	records, valid := decodeWAL(data)
	if len(records) != 1 {
		t.Fatalf("want 1 record before corrupt frame, got %d", len(records))
	}
	if valid != recLen {
		t.Fatalf("want valid prefix %d, got %d", recLen, valid)
	}
}

func TestDecodeWALInsaneLengths(t *testing.T) {
	// Corrupt length fields must not panic or over-read.
	data := make([]byte, 13)
	binary.LittleEndian.PutUint32(data[4:], 0xffffffff)
	binary.LittleEndian.PutUint32(data[8:], 0xffffffff)
	records, valid := decodeWAL(data)
	if len(records) != 0 || valid != 0 {
		t.Fatalf("want no records from garbage header, got %d (valid=%d)", len(records), valid)
	}
}

func TestOpenWALTruncatesTornTailThenAppends(t *testing.T) {
	// The core torn-tail bug: after a crash mid-append, new records must not
	// land after the garbage — the next replay would stop at the torn frame
	// and silently lose everything appended after it.
	dir := t.TempDir()
	writeTestWAL(t, dir, 5)
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	w, records, err := openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("want 4 records after torn tail, got %d", len(records))
	}
	if err := w.append([]Write{{Key: []byte("after"), Value: []byte("crash")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	_, records, err = openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("want 4 old + 1 new records after reopen, got %d", len(records))
	}
	last := records[len(records)-1]
	if string(last.Key) != "after" || string(last.Value) != "crash" {
		t.Fatalf("post-crash append lost: got %q=%q", last.Key, last.Value)
	}
}

func TestWALSyncSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append([]Write{{Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon the handle without close: synced data must still replay.
	_, records, err := openWAL(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0].Key) != "k" {
		t.Fatalf("synced record lost: %v", records)
	}
}

func TestTreeSurvivesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 30})
	for i := 0; i < 10; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record lands at the tail.
	f, err := os.OpenFile(walPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x05}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr2, err := Open(Options{Dir: dir, MemtableBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, found, err := tr2.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !found || !bytes.Equal(v, []byte(fmt.Sprintf("v%02d", i))) {
			t.Fatalf("k%02d lost after torn tail: %q %v %v", i, v, found, err)
		}
	}
	// And the log must keep working after the truncation.
	if err := tr2.Put([]byte("new"), []byte("rec")); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	tr3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, found, _ := tr3.Get([]byte("new")); !found || string(v) != "rec" {
		t.Fatalf("post-truncation write lost: %q %v", v, found)
	}
}

func TestReplaceWithFiles(t *testing.T) {
	srcDir := t.TempDir()
	src := openTest(t, Options{Dir: srcDir, MemtableBytes: 1 << 30})
	for i := 0; i < 100; i++ {
		if err := src.Put([]byte(fmt.Sprintf("s%03d", i)), []byte(fmt.Sprintf("sv%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	manifest := src.Manifest()
	if len(manifest) == 0 {
		t.Fatal("source manifest empty")
	}

	dst := openTest(t, Options{MemtableBytes: 1 << 30})
	if err := dst.Put([]byte("stale"), []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReplaceWithFiles(manifest); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := dst.Get([]byte("stale")); found {
		t.Fatal("stale key survived ReplaceWithFiles")
	}
	for i := 0; i < 100; i += 13 {
		k := []byte(fmt.Sprintf("s%03d", i))
		v, found, err := dst.Get(k)
		if err != nil || !found || !bytes.Equal(v, []byte(fmt.Sprintf("sv%03d", i))) {
			t.Fatalf("adopted key %s: %q %v %v", k, v, found, err)
		}
	}
	// Adopted tables are hard links: writes to dst must not disturb src.
	if err := dst.Put([]byte("s000"), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := src.Get([]byte("s000")); !found || string(v) != "sv000" {
		t.Fatalf("source disturbed by writes to adopter: %q %v", v, found)
	}
}
