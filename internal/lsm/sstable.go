package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// SSTable file format (all integers little-endian):
//
//	magic         uint32
//	entryCount    uint32
//	entries       entryCount × { keyLen u32, key, valLen u32, val, tombstone u8 }
//	bloomLen      uint32
//	bloom         bloomLen bytes (bit array)
//	bloomHashes   uint32
//	indexCount    uint32
//	index         indexCount × { keyLen u32, key, offset u64 }  (every Nth key)
//	footer        { indexOffset u64, crc u32 }
//
// Tables are immutable once written. Opening one reads and verifies the whole
// file once; after that the file stays open and a lookup reads only the block
// of at most indexInterval entries the sparse index names, and a scan streams
// blocks in order from the one holding its start key.

const (
	ssMagic       = 0x4C534D31 // "LSM1"
	indexInterval = 16
	// maxBloomHashes bounds the probe count read from a file, so a hostile
	// table cannot turn every lookup into a four-billion-step loop.
	maxBloomHashes = 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type sstable struct {
	path    string
	f       tableFile // open for ReadAt for the table's lifetime
	minKey  []byte
	maxKey  []byte
	count   int
	size    int64
	bloom   []byte
	hashes  uint32
	index   []indexEntry
	dataEnd int64 // offset one past the last entry
}

// tableFile is what a table needs of its file once it is open.
type tableFile interface {
	io.ReaderAt
	io.Closer
}

type indexEntry struct {
	key    []byte
	offset int64
}

// writeSSTable persists sorted entries to path and returns the table handle.
func writeSSTable(path string, entries []entry) (*sstable, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("lsm: refusing to write empty sstable %s", path)
	}
	// Bloom filter sized at ~10 bits/key, 7 hashes. The bit count must equal
	// len(bloom)*8 exactly — mayContain derives the modulus from the byte
	// slice length, so any slack bits would shift every index.
	bloomBits := len(entries) * 10
	if bloomBits < 64 {
		bloomBits = 64
	}
	bloom := make([]byte, (bloomBits+7)/8)
	bloomBits = len(bloom) * 8
	const bloomHashes = 7
	addBloom := func(key []byte) {
		h1 := crc32.ChecksumIEEE(key)
		h2 := crc32.Checksum(key, castagnoli)
		for i := uint32(0); i < bloomHashes; i++ {
			idx := (h1 + i*h2) % uint32(bloomBits)
			bloom[idx/8] |= 1 << (idx % 8)
		}
	}

	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, ssMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	t := &sstable{path: path, count: len(entries)}
	for i, e := range entries {
		if i%indexInterval == 0 {
			t.index = append(t.index, indexEntry{key: e.key, offset: int64(len(buf))})
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.value)))
		buf = append(buf, e.value...)
		if e.tombstone {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		addBloom(e.key)
	}
	t.dataEnd = int64(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bloom)))
	buf = append(buf, bloom...)
	buf = binary.LittleEndian.AppendUint32(buf, bloomHashes)
	indexOffset := uint64(len(buf))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.index)))
	for _, ie := range t.index {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ie.key)))
		buf = append(buf, ie.key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ie.offset))
	}
	buf = binary.LittleEndian.AppendUint64(buf, indexOffset)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: create sstable: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("lsm: write sstable: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("lsm: sync sstable: %w", err)
	}
	t.f = f
	t.minKey = append([]byte(nil), entries[0].key...)
	t.maxKey = append([]byte(nil), entries[len(entries)-1].key...)
	t.size = int64(len(buf))
	t.bloom = bloom
	t.hashes = bloomHashes
	return t, nil
}

// openSSTable verifies an existing table file, loads its metadata (bloom +
// index) and keeps the file open for block reads.
func openSSTable(path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: open sstable: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("lsm: read sstable: %w", err)
	}
	t, err := parseSSTable(data)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("lsm: sstable %s: %w", path, err)
	}
	t.path, t.f = path, f
	return t, nil
}

// byteReader is a bounds-checked cursor over bytes read from a table file:
// every length it is handed comes from the file, so each is checked against
// what is left before anything is sliced or allocated.
type byteReader struct {
	data []byte
	pos  int
}

var errTruncated = errors.New("truncated or corrupt table data")

func (r *byteReader) u32() (uint32, error) {
	if len(r.data)-r.pos < 4 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if len(r.data)-r.pos < 8 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v, nil
}

// bytes returns the next n bytes, aliasing the underlying data.
func (r *byteReader) bytes(n uint32) ([]byte, error) {
	if uint64(len(r.data)-r.pos) < uint64(n) {
		return nil, errTruncated
	}
	b := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// entry reads one data entry; its key and value alias the underlying data.
func (r *byteReader) entry() (entry, error) {
	kl, err := r.u32()
	if err != nil {
		return entry{}, err
	}
	key, err := r.bytes(kl)
	if err != nil {
		return entry{}, err
	}
	vl, err := r.u32()
	if err != nil {
		return entry{}, err
	}
	val, err := r.bytes(vl)
	if err != nil {
		return entry{}, err
	}
	tomb, err := r.bytes(1)
	if err != nil {
		return entry{}, err
	}
	return entry{key: key, value: val, tombstone: tomb[0] == 1}, nil
}

// parseSSTable checks a whole table image — checksum, magic, every entry's
// framing and order, the bloom section, and that the sparse index names real
// entry offsets — and returns the metadata lookups need. Nothing in the
// returned table aliases data.
func parseSSTable(data []byte) (*sstable, error) {
	if len(data) < 20 {
		return nil, errTruncated
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("checksum mismatch")
	}
	if binary.LittleEndian.Uint32(data[0:4]) != ssMagic {
		return nil, errors.New("bad magic")
	}
	footer := len(body) - 8
	r := byteReader{data: body[:footer], pos: 4}
	count, _ := r.u32()
	if count == 0 {
		return nil, errors.New("no entries")
	}
	t := &sstable{size: int64(len(data))}
	var blockStarts []indexEntry
	var prev []byte
	for i := uint32(0); i < count; i++ {
		off := int64(r.pos)
		e, err := r.entry()
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if i > 0 && bytes.Compare(prev, e.key) >= 0 {
			return nil, fmt.Errorf("entry %d: keys out of order", i)
		}
		if i%indexInterval == 0 {
			blockStarts = append(blockStarts, indexEntry{key: e.key, offset: off})
		}
		if i == 0 {
			t.minKey = append([]byte(nil), e.key...)
		}
		prev = e.key
		t.count++
	}
	t.maxKey = append([]byte(nil), prev...)
	t.dataEnd = int64(r.pos)

	bl, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	bloom, err := r.bytes(bl)
	if err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	t.bloom = append([]byte(nil), bloom...)
	if t.hashes, err = r.u32(); err != nil || t.hashes > maxBloomHashes {
		return nil, errors.New("bloom: bad hash count")
	}

	if binary.LittleEndian.Uint64(body[footer:]) != uint64(r.pos) {
		return nil, errors.New("index offset does not follow the bloom filter")
	}
	ic, err := r.u32()
	if err != nil || int(ic) != len(blockStarts) {
		return nil, fmt.Errorf("index: want %d blocks", len(blockStarts))
	}
	for i, want := range blockStarts {
		kl, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("index %d: %w", i, err)
		}
		key, err := r.bytes(kl)
		if err != nil {
			return nil, fmt.Errorf("index %d: %w", i, err)
		}
		off, err := r.u64()
		if err != nil {
			return nil, fmt.Errorf("index %d: %w", i, err)
		}
		if int64(off) != want.offset || !bytes.Equal(key, want.key) {
			return nil, fmt.Errorf("index %d does not name a block start", i)
		}
		t.index = append(t.index, indexEntry{key: append([]byte(nil), key...), offset: want.offset})
	}
	if r.pos != footer {
		return nil, errors.New("trailing bytes after index")
	}
	return t, nil
}

// mayContain consults the table's key range and bloom filter: false means
// the table certainly does not hold key.
func (t *sstable) mayContain(key []byte) bool {
	if bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 {
		return false
	}
	if len(t.bloom) == 0 {
		return true
	}
	bits := uint32(len(t.bloom) * 8)
	h1 := crc32.ChecksumIEEE(key)
	h2 := crc32.Checksum(key, castagnoli)
	for i := uint32(0); i < t.hashes; i++ {
		idx := (h1 + i*h2) % bits
		if t.bloom[idx/8]&(1<<(idx%8)) == 0 {
			return false
		}
	}
	return true
}

// blockFor returns the index of the last block whose first key is <= key, or
// -1 when key sorts before the whole table.
func (t *sstable) blockFor(key []byte) int {
	return sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) > 0
	}) - 1
}

// readBlock reads block i — the entries from one index point to the next —
// and nothing else of the file.
func (t *sstable) readBlock(i int) (byteReader, error) {
	end := t.dataEnd
	if i+1 < len(t.index) {
		end = t.index[i+1].offset
	}
	buf := make([]byte, end-t.index[i].offset)
	if _, err := t.f.ReadAt(buf, t.index[i].offset); err != nil {
		return byteReader{}, fmt.Errorf("lsm: read sstable %s: %w", t.path, err)
	}
	return byteReader{data: buf}, nil
}

// get looks up key by reading the one block the sparse index names.
func (t *sstable) get(key []byte) (value []byte, deleted, found bool, err error) {
	if !t.mayContain(key) {
		return nil, false, false, nil
	}
	r, err := t.readBlock(t.blockFor(key))
	if err != nil {
		return nil, false, false, err
	}
	for r.pos < len(r.data) {
		e, err := r.entry()
		if err != nil {
			return nil, false, false, fmt.Errorf("lsm: sstable %s: %w", t.path, err)
		}
		switch c := bytes.Compare(e.key, key); {
		case c == 0:
			return e.value, e.tombstone, true, nil
		case c > 0:
			return nil, false, false, nil
		}
	}
	return nil, false, false, nil
}

// tableIter streams a table's entries in key order, one block read at a time.
type tableIter struct {
	t     *sstable
	block int // next block to read
	r     byteReader
	start []byte // entries below it are skipped; nil once passed
}

// iter returns an iterator over the entries with key >= start (all of them
// when start is nil), beginning at the block that holds start.
func (t *sstable) iter(start []byte) *tableIter {
	it := &tableIter{t: t, start: start}
	if start != nil {
		if b := t.blockFor(start); b > 0 {
			it.block = b
		}
	}
	return it
}

func (it *tableIter) next() (entry, bool, error) {
	for {
		if it.r.pos >= len(it.r.data) {
			if it.block >= len(it.t.index) {
				return entry{}, false, nil
			}
			r, err := it.t.readBlock(it.block)
			if err != nil {
				return entry{}, false, err
			}
			it.r = r
			it.block++
		}
		e, err := it.r.entry()
		if err != nil {
			return entry{}, false, fmt.Errorf("lsm: sstable %s: %w", it.t.path, err)
		}
		if it.start != nil {
			if bytes.Compare(e.key, it.start) < 0 {
				continue
			}
			it.start = nil
		}
		return e, true, nil
	}
}

// close releases the table's file handle.
func (t *sstable) close() error { return t.f.Close() }
