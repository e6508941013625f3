package lsm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Options configures a Tree.
type Options struct {
	// Dir is the directory holding the WAL and SSTable files.
	Dir string
	// MemtableBytes is the flush threshold for the in-memory table.
	// Defaults to 1 MiB.
	MemtableBytes int
	// CompactionFanIn is the number of tables in a level that triggers
	// compaction into the next level. Defaults to 4.
	CompactionFanIn int
	// DisableWAL skips write-ahead logging (used when durability is provided
	// by an outer mechanism such as engine checkpoints).
	DisableWAL bool
	// Seed seeds the skiplist height RNG for determinism in tests.
	Seed int64
}

// Tree is a log-structured merge tree supporting Put/Get/Delete/Scan,
// crash recovery from the WAL, and snapshot-style file manifests for
// incremental checkpoints.
type Tree struct {
	mu     sync.RWMutex
	opts   Options
	mem    *skiplist
	wal    *wal
	levels [][]*sstable // levels[0] newest first; deeper levels older
	nextID int
	// flushedTables counts tables ever written; compactions counts merges.
	FlushCount   int
	CompactCount int
}

// Open creates or reopens a tree in opts.Dir, replaying the WAL if present.
func Open(opts Options) (*Tree, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("lsm: Options.Dir is required")
	}
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = 1 << 20
	}
	if opts.CompactionFanIn <= 0 {
		opts.CompactionFanIn = 4
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: create dir: %w", err)
	}
	t := &Tree{opts: opts, mem: newSkiplist(opts.Seed)}

	if err := t.loadTablesLocked(); err != nil {
		return nil, err
	}

	if !opts.DisableWAL {
		w, records, err := openWAL(filepath.Join(opts.Dir, "wal.log"))
		if err != nil {
			return nil, err
		}
		t.wal = w
		for _, r := range records {
			t.applyLocked(r)
		}
	}
	return t, nil
}

// loadTablesLocked scans opts.Dir for SSTables (named tbl-<level>-<id>.sst)
// and rebuilds the level structure from scratch.
func (t *Tree) loadTablesLocked() error {
	t.levels = nil
	names, err := filepath.Glob(filepath.Join(t.opts.Dir, "tbl-*.sst"))
	if err != nil {
		return fmt.Errorf("lsm: glob tables: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		var level, id int
		base := filepath.Base(name)
		if _, err := fmt.Sscanf(base, "tbl-%d-%d.sst", &level, &id); err != nil {
			continue
		}
		tbl, err := openSSTable(name)
		if err != nil {
			t.closeTablesLocked()
			return err
		}
		for len(t.levels) <= level {
			t.levels = append(t.levels, nil)
		}
		t.levels[level] = append(t.levels[level], tbl)
		if id >= t.nextID {
			t.nextID = id + 1
		}
	}
	// Within each level, newest (highest id) first.
	for _, lvl := range t.levels {
		sort.Slice(lvl, func(i, j int) bool { return lvl[i].path > lvl[j].path })
	}
	return nil
}

// syncDir fsyncs a directory so file creations/removals inside it survive a
// power failure. Checkpoint manifests reference tables by name; a table that
// exists only in the directory's in-memory dentry cache is not durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("lsm: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("lsm: sync dir: %w", err)
	}
	return nil
}

// Put stores key -> value.
func (t *Tree) Put(key, value []byte) error {
	return t.Apply([]Write{{Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)}})
}

// Delete removes key (via tombstone).
func (t *Tree) Delete(key []byte) error {
	return t.Apply([]Write{{Key: append([]byte(nil), key...), Delete: true}})
}

// Apply performs a batch of mutations in order: one WAL append for the whole
// batch, then the memtable inserts, then at most one flush. The tree keeps
// the batch's key and value slices; the caller must not modify them after.
func (t *Tree) Apply(batch []Write) error {
	if len(batch) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal != nil {
		if err := t.wal.append(batch); err != nil {
			return err
		}
	}
	for _, w := range batch {
		t.applyLocked(w)
	}
	return t.maybeFlushLocked()
}

// applyLocked folds one mutation into the memtable. A delete normally leaves
// a tombstone, to shadow older versions in the tables; when no table can hold
// the key there is nothing to shadow, so the key's memtable entry simply goes.
// State that is created, checkpointed once and deleted — a window — then costs
// the tree nothing after its deletion, instead of a dead entry and a
// tombstone that every scan steps over until compaction reaches them.
func (t *Tree) applyLocked(w Write) {
	switch {
	case !w.Delete:
		t.mem.put(w.Key, w.Value, false)
	case t.tablesMayContainLocked(w.Key):
		t.mem.put(w.Key, nil, true)
	default:
		t.mem.remove(w.Key)
	}
}

// tablesMayContainLocked reports whether any table may hold key. False is
// definite: bloom filters have no false negatives.
func (t *Tree) tablesMayContainLocked(key []byte) bool {
	for _, lvl := range t.levels {
		for _, tbl := range lvl {
			if tbl.mayContain(key) {
				return true
			}
		}
	}
	return false
}

// Get returns the value for key, or found=false. The returned slice must not
// be modified.
func (t *Tree) Get(key []byte) (value []byte, found bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if v, del, ok := t.mem.get(key); ok {
		return v, !del, nil
	}
	for _, lvl := range t.levels {
		for _, tbl := range lvl {
			v, del, ok, err := tbl.get(key)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return v, !del, nil
			}
		}
	}
	return nil, false, nil
}

// Scan calls fn for every live key in [start, end) in key order. A nil start
// or end means unbounded on that side. fn returning false stops the scan; the
// slices it is handed are only valid during the call. The scan seeks each
// source to start and stops at end, so its cost follows the range, not the
// tree.
func (t *Tree) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Sources newest-first: memtable, L0 newest..oldest, L1, ...
	sources := []entryIter{&memIter{n: t.mem.descend(start, nil)}}
	for _, lvl := range t.levels {
		for _, tbl := range lvl {
			if end != nil && bytes.Compare(tbl.minKey, end) >= 0 {
				continue
			}
			if start != nil && bytes.Compare(tbl.maxKey, start) < 0 {
				continue
			}
			sources = append(sources, tbl.iter(start))
		}
	}
	return mergeIters(sources, func(e entry) bool {
		if end != nil && bytes.Compare(e.key, end) >= 0 {
			return false
		}
		return e.tombstone || fn(e.key, e.value)
	})
}

// entryIter yields one source's entries in ascending key order.
type entryIter interface {
	next() (e entry, ok bool, err error)
}

// mergeIters is a streaming k-way merge: it calls fn once per distinct key in
// ascending order with the version from the earliest source that has the key
// (sources are ordered newest first, so the newest version wins), tombstones
// included, until fn returns false. The handful of sources a tree has makes a
// linear pick of the smallest head cheaper than a heap.
func mergeIters(sources []entryIter, fn func(entry) bool) error {
	heads := make([]entry, len(sources))
	live := make([]bool, len(sources))
	advance := func(i int) (err error) {
		heads[i], live[i], err = sources[i].next()
		return err
	}
	for i := range sources {
		if err := advance(i); err != nil {
			return err
		}
	}
	for {
		best := -1
		for i := range sources {
			if live[i] && (best < 0 || bytes.Compare(heads[i].key, heads[best].key) < 0) {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		e := heads[best]
		for i := best; i < len(sources); i++ {
			if live[i] && (i == best || bytes.Equal(heads[i].key, e.key)) {
				if err := advance(i); err != nil {
					return err
				}
			}
		}
		if !fn(e) {
			return nil
		}
	}
}

// walBudget is how many memtable budgets of log may accumulate before a flush
// truncates it. Deletes that cancel their puts keep the memtable small while
// the log still grows, so the memtable's size alone cannot bound the log.
const walBudget = 4

func (t *Tree) maybeFlushLocked() error {
	if t.mem.size < t.opts.MemtableBytes && (t.wal == nil || t.wal.size < walBudget*int64(t.opts.MemtableBytes)) {
		return nil
	}
	return t.flushLocked()
}

// Flush forces the memtable to disk as a new L0 table.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Tree) flushLocked() error {
	entries := t.mem.entries()
	if len(entries) == 0 {
		// Whatever the log holds cancelled out.
		if t.wal != nil {
			return t.wal.reset()
		}
		return nil
	}
	path := filepath.Join(t.opts.Dir, fmt.Sprintf("tbl-%d-%08d.sst", 0, t.nextID))
	t.nextID++
	tbl, err := writeSSTable(path, entries)
	if err != nil {
		return err
	}
	if err := syncDir(t.opts.Dir); err != nil {
		return err
	}
	t.FlushCount++
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	t.levels[0] = append([]*sstable{tbl}, t.levels[0]...)
	t.mem = newSkiplist(t.opts.Seed + int64(t.nextID))
	if t.wal != nil {
		if err := t.wal.reset(); err != nil {
			return err
		}
	}
	return t.maybeCompactLocked()
}

func (t *Tree) maybeCompactLocked() error {
	for level := 0; level < len(t.levels); level++ {
		if len(t.levels[level]) < t.opts.CompactionFanIn {
			continue
		}
		// Merge every table in this level into one table in the next level,
		// dropping tombstones when that is the last level.
		lastLevel := level+1 >= len(t.levels)
		sources := make([]entryIter, len(t.levels[level]))
		for i, tbl := range t.levels[level] {
			sources[i] = tbl.iter(nil)
		}
		var merged []entry
		err := mergeIters(sources, func(e entry) bool {
			if !(lastLevel && e.tombstone) {
				merged = append(merged, e)
			}
			return true
		})
		if err != nil {
			return err
		}
		old := t.levels[level]
		t.levels[level] = nil
		if len(merged) > 0 {
			path := filepath.Join(t.opts.Dir, fmt.Sprintf("tbl-%d-%08d.sst", level+1, t.nextID))
			t.nextID++
			tbl, err := writeSSTable(path, merged)
			if err != nil {
				return err
			}
			for len(t.levels) <= level+1 {
				t.levels = append(t.levels, nil)
			}
			t.levels[level+1] = append([]*sstable{tbl}, t.levels[level+1]...)
		}
		for _, tbl := range old {
			_ = tbl.close() // read-only handle
			if err := os.Remove(tbl.path); err != nil {
				return fmt.Errorf("lsm: remove compacted table: %w", err)
			}
		}
		t.CompactCount++
	}
	return nil
}

// SyncWAL forces the WAL records the OS still buffers down to the medium, for
// callers that need the log itself to survive a power failure. The engine's
// checkpoints do not: what they store is complete without the log. No-op when
// the WAL is disabled.
func (t *Tree) SyncWAL() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return nil
	}
	return t.wal.sync()
}

// ReplaceWithFiles discards the tree's current contents and adopts the given
// SSTable files (checkpoint restore). Files are hard-linked into the tree
// directory when possible, copied otherwise, preserving basenames so level
// and id survive. The WAL is reset: the adopted tables are the complete
// state.
func (t *Tree) ReplaceWithFiles(paths []string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeTablesLocked()
	old, err := filepath.Glob(filepath.Join(t.opts.Dir, "tbl-*.sst"))
	if err != nil {
		return fmt.Errorf("lsm: glob tables: %w", err)
	}
	for _, name := range old {
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("lsm: remove stale table: %w", err)
		}
	}
	for _, src := range paths {
		dst := filepath.Join(t.opts.Dir, filepath.Base(src))
		if err := linkOrCopy(src, dst); err != nil {
			return err
		}
	}
	if err := syncDir(t.opts.Dir); err != nil {
		return err
	}
	t.mem = newSkiplist(t.opts.Seed)
	t.nextID = 0
	if err := t.loadTablesLocked(); err != nil {
		return err
	}
	if t.wal != nil {
		return t.wal.reset()
	}
	return nil
}

// linkOrCopy hard-links src to dst, falling back to a fsynced copy when the
// link fails (cross-device, or a filesystem without hard links).
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return fmt.Errorf("lsm: copy table: %w", err)
	}
	f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: copy table: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("lsm: copy table: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("lsm: copy table: %w", err)
	}
	return f.Close()
}

// Manifest lists the immutable table files currently composing the tree.
// Incremental checkpoints ship only files not present in the previous
// manifest.
func (t *Tree) Manifest() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var files []string
	for _, lvl := range t.levels {
		for _, tbl := range lvl {
			files = append(files, tbl.path)
		}
	}
	sort.Strings(files)
	return files
}

// Stats summarises the tree shape.
type Stats struct {
	MemtableBytes int
	MemtableKeys  int
	Levels        []int // tables per level
	DiskBytes     int64
}

// Stats returns current tree statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{MemtableBytes: t.mem.size, MemtableKeys: t.mem.count}
	for _, lvl := range t.levels {
		s.Levels = append(s.Levels, len(lvl))
		for _, tbl := range lvl {
			s.DiskBytes += tbl.size
		}
	}
	return s
}

// MemtableBytes returns the memtable's flush threshold.
func (t *Tree) MemtableBytes() int { return t.opts.MemtableBytes }

// closeTablesLocked releases every table's read handle.
func (t *Tree) closeTablesLocked() {
	for _, lvl := range t.levels {
		for _, tbl := range lvl {
			_ = tbl.close() // read-only handle
		}
	}
}

// Close flushes the memtable and releases the WAL and the table handles.
func (t *Tree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		return err
	}
	t.closeTablesLocked()
	if t.wal != nil {
		return t.wal.close()
	}
	return nil
}
