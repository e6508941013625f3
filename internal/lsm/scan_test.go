package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

type kv struct{ k, v string }

func scanAll(t *testing.T, tr *Tree, start, end []byte) []kv {
	t.Helper()
	var out []kv
	if err := tr.Scan(start, end, func(k, v []byte) bool {
		out = append(out, kv{string(k), string(v)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanRangeEqualsFilteredFullScan: a bounded scan must return exactly the
// part of a full scan inside [start, end), whatever mix of memtable, flushed
// tables, overwritten versions and tombstones the keys sit in.
func TestScanRangeEqualsFilteredFullScan(t *testing.T) {
	tr := openTest(t, Options{MemtableBytes: 700, CompactionFanIn: 3, Seed: 5})
	defer tr.Close()
	rng := rand.New(rand.NewSource(23))
	model := map[string]string{}
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(400)) }
	for i := 0; i < 6000; i++ {
		k := key()
		if rng.Intn(3) == 0 {
			delete(model, k)
			if err := tr.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		} else {
			model[k] = fmt.Sprint("v", i)
			if err := tr.Put([]byte(k), []byte(model[k])); err != nil {
				t.Fatal(err)
			}
		}
		if i%250 != 0 {
			continue
		}
		full := scanAll(t, tr, nil, nil)
		if len(full) != len(model) {
			t.Fatalf("iter %d: full scan has %d keys, model %d", i, len(full), len(model))
		}
		for j, e := range full {
			if model[e.k] != e.v {
				t.Fatalf("iter %d: %s = %q, model %q", i, e.k, e.v, model[e.k])
			}
			if j > 0 && full[j-1].k >= e.k {
				t.Fatalf("iter %d: scan out of order at %s", i, e.k)
			}
		}
		for n := 0; n < 8; n++ {
			var start, end []byte
			if rng.Intn(4) > 0 {
				start = []byte(key())
			}
			if rng.Intn(4) > 0 {
				end = []byte(key())
			}
			var want []kv
			for _, e := range full {
				if (start == nil || e.k >= string(start)) && (end == nil || e.k < string(end)) {
					want = append(want, e)
				}
			}
			got := scanAll(t, tr, start, end)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("iter %d: scan [%s,%s) = %v, want %v", i, start, end, got, want)
			}
		}
	}
	if tr.FlushCount == 0 || tr.CompactCount == 0 {
		t.Fatalf("the sequence must cross flushes and compactions (flushes=%d compactions=%d)", tr.FlushCount, tr.CompactCount)
	}
}

// TestGetAfterReopenAndTruncation: lookups go through the file handle opened
// with the table, after a reopen too, and a table cut short after it was
// opened fails the lookup instead of reading as "absent".
func TestGetAfterReopenAndTruncation(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir, MemtableBytes: 1 << 30})
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	tr = openTest(t, Options{Dir: dir})
	defer tr.Close()
	for i := 0; i < 500; i += 7 {
		v, found, err := tr.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%04d after reopen: %q %v %v", i, v, found, err)
		}
	}
	if _, found, err := tr.Get([]byte("key-0100x")); found || err != nil {
		t.Fatalf("absent key inside the table's range: found=%v err=%v", found, err)
	}

	tables := tr.Manifest()
	if len(tables) != 1 {
		t.Fatalf("want one table, got %v", tables)
	}
	if err := os.Truncate(tables[0], 64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Get([]byte("key-0400")); err == nil {
		t.Fatal("lookup in a truncated table must fail, not miss")
	}
	if err := tr.Scan(nil, nil, func(k, v []byte) bool { return true }); err == nil {
		t.Fatal("scan over a truncated table must fail")
	}
}

// TestDeleteOfUnflushedKeyLeavesNothing: a delete whose key no table can hold
// removes the memtable entry instead of adding a tombstone, and the log is
// still bounded although the memtable never fills.
func TestDeleteOfUnflushedKeyLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	tr := openTest(t, Options{Dir: dir, MemtableBytes: 4096})
	defer tr.Close()
	if err := tr.Put([]byte("flushed"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("churn-%05d", i))
		if err := tr.Apply([]Write{{Key: k, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	// Only a key that a log-bound flush caught between its put and its delete
	// needs a tombstone; every other pair cancelled out.
	flushes := tr.FlushCount - 1
	if st := tr.Stats(); st.MemtableKeys > flushes || flushes > 5000*50/(walBudget*4096)+1 {
		t.Fatalf("%d keys left in the memtable after %d log-bound flushes", st.MemtableKeys, flushes)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() > walBudget*4096+200 {
		t.Fatalf("wal not bounded: %v bytes, err %v", fi.Size(), err)
	}
	// A key a table does hold still gets its tombstone.
	if err := tr.Delete([]byte("flushed")); err != nil {
		t.Fatal(err)
	}
	if v, del, ok := tr.mem.get([]byte("flushed")); !ok || !del {
		t.Fatalf("tombstone for a flushed key missing: %q %v %v", v, del, ok)
	}
	if _, found, _ := tr.Get([]byte("flushed")); found {
		t.Fatal("deleted key still readable")
	}
	if got := scanAll(t, tr, nil, nil); len(got) != 0 {
		t.Fatalf("scan after deletes: %v", got)
	}
}

// TestBatchAppendMatchesPerRecordAppend: one batched append writes the bytes
// per-record appends write, so replay cannot tell them apart.
func TestBatchAppendMatchesPerRecordAppend(t *testing.T) {
	var batch []Write
	for i := 0; i < 40; i++ {
		w := Write{Key: []byte(fmt.Sprintf("key-%02d", i)), Value: bytes.Repeat([]byte{byte(i)}, i)}
		if i%5 == 0 {
			w = Write{Key: w.Key, Delete: true}
		}
		batch = append(batch, w)
	}
	write := func(dir string, chunks [][]Write) []byte {
		w, _, err := openWAL(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if err := w.append(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(walPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var single [][]Write
	for i := range batch {
		single = append(single, batch[i:i+1])
	}
	one, many := write(t.TempDir(), [][]Write{batch}), write(t.TempDir(), single)
	if !bytes.Equal(one, many) {
		t.Fatal("batched append and per-record append wrote different logs")
	}
	records, valid := decodeWAL(one)
	if valid != len(one) || len(records) != len(batch) {
		t.Fatalf("replay: %d records, %d of %d bytes", len(records), valid, len(one))
	}
	for i, r := range records {
		if !bytes.Equal(r.Key, batch[i].Key) || !bytes.Equal(r.Value, batch[i].Value) || r.Delete != batch[i].Delete {
			t.Fatalf("record %d replayed as %+v, want %+v", i, r, batch[i])
		}
	}
}
