package lsm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeWAL: whatever the log holds, replay stops at the first frame it
// cannot vouch for, never panics, and the prefix it accepts decodes again to
// the same records.
func FuzzDecodeWAL(f *testing.F) {
	frames := func(batch ...Write) []byte {
		dir := f.TempDir()
		l, _, err := openWAL(walPath(dir))
		if err != nil {
			f.Fatal(err)
		}
		if err := l.append(batch); err != nil {
			f.Fatal(err)
		}
		if err := l.close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(walPath(dir))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	good := frames(Write{Key: []byte("k1"), Value: []byte("v1")}, Write{Key: []byte("k2"), Delete: true}, Write{Key: []byte(""), Value: nil})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad, 0xbe, 0xef, 0x05))
	huge := make([]byte, walHeader)
	binary.LittleEndian.PutUint32(huge[4:], 0xffffffff)
	binary.LittleEndian.PutUint32(huge[8:], 0xffffffff)
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, valid := decodeWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
		}
		again, n := decodeWAL(data[:valid])
		if n != valid || len(again) != len(records) {
			t.Fatalf("accepted prefix is not self-delimiting: %d records/%d bytes, then %d/%d", len(records), valid, len(again), n)
		}
		size := 0
		for _, r := range records {
			size += walHeader + len(r.Key) + len(r.Value)
		}
		if size != valid {
			t.Fatalf("records account for %d bytes of a %d-byte prefix", size, valid)
		}
	})
}

// memFile serves a table image from memory, so the fuzzer is not bound by
// file I/O.
type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

// FuzzOpenSSTable: a table whose checksum is right but whose contents are
// arbitrary either fails to open or serves lookups and scans consistently;
// no length field in it can cause a panic, an over-read or a hang.
func FuzzOpenSSTable(f *testing.F) {
	seedDir := f.TempDir()
	seed := func(name string, entries []entry) []byte {
		tbl, err := writeSSTable(filepath.Join(seedDir, name), entries)
		if err != nil {
			f.Fatal(err)
		}
		defer tbl.close()
		data, err := os.ReadFile(tbl.path)
		if err != nil {
			f.Fatal(err)
		}
		return data[:len(data)-4]
	}
	small := seed("small.sst", []entry{{key: []byte("a"), value: []byte("1")}, {key: []byte("b"), tombstone: true}})
	var many []entry
	for i := 0; i < 3*indexInterval+1; i++ {
		many = append(many, entry{key: []byte{'k', byte('0' + i/10), byte('0' + i%10)}, value: bytes.Repeat([]byte{byte(i)}, i%5)})
	}
	f.Add(small)
	f.Add(seed("many.sst", many))
	f.Add(small[:len(small)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		// Complete the image with the checksum that is verified first, so
		// mutated bytes reach the parser behind it.
		data := binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		tbl, err := parseSSTable(data)
		if err != nil {
			return
		}
		tbl.f = memFile{bytes.NewReader(data)}
		// An accepted table is a sorted run of tbl.count entries: a scan
		// yields them in order and a lookup of each finds it.
		it, n := tbl.iter(nil), 0
		var prev []byte
		for {
			e, ok, err := it.next()
			if err != nil {
				t.Fatalf("scan of an accepted table: %v", err)
			}
			if !ok {
				break
			}
			if n > 0 && bytes.Compare(prev, e.key) >= 0 {
				t.Fatalf("scan out of order at entry %d", n)
			}
			prev = append(prev[:0], e.key...)
			n++
			if tbl.mayContain(e.key) {
				v, del, found, err := tbl.get(e.key)
				if err != nil || !found || del != e.tombstone || !bytes.Equal(v, e.value) {
					t.Fatalf("get(%q) = %q del=%v found=%v err=%v, scan saw %q del=%v", e.key, v, del, found, err, e.value, e.tombstone)
				}
			}
		}
		if n != tbl.count {
			t.Fatalf("scan yielded %d entries, table says %d", n, tbl.count)
		}
		if _, _, _, err := tbl.get([]byte("absent")); err != nil {
			t.Fatalf("get of an absent key: %v", err)
		}
	})
}
