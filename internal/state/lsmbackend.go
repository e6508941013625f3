package state

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/lsm"
)

// LSMBackend stores keyed state in a log-structured merge tree on disk,
// letting state grow beyond main memory (§3.1: "the ability to store state
// beyond main memory ... log-structured merge trees"). Every element of state
// — a value, one map entry, one list item — is one tree entry (lsmkeys.go),
// so an element operation touches one entry and a key-group export is a
// contiguous range scan, which is why RocksDB-style backends make rescaling
// and incremental checkpoints cheap.
//
// In front of the tree sits a write-back cache of decoded values. It has one
// rule: it is flushed, as one batched tree write, wherever the tree is read
// as a whole (Snapshot, SnapshotDelta, SnapshotFiles, ExportGroups,
// ForEachKey, Dispose). Between those points the Get-then-Put of a record is
// two map operations, and an element created and removed never reaches the
// tree at all. What a crash can lose is therefore exactly what the last
// completed checkpoint does not cover. A map Get that returns a cell marks
// its slot dirty, since the caller may mutate the cell in place (see
// MapState). The cache is bounded by the tree's memtable budget: over it,
// dirty entries spill to the memtable and the rest are dropped, so state
// larger than memory still works.
//
// A map[string]any or []any is how an Image spells map and list state, so
// value state must not hold one (Set panics): it could not be
// told apart from a collection when an image is imported.
type LSMBackend struct {
	numGroups  int
	currentKey string
	curGroup   int // key group of currentKey, hashed once per SetCurrentKey
	tree       *lsm.Tree

	vals       map[dirtyKey]*slot
	maps       map[dirtyKey]*mapColl
	lists      map[dirtyKey]*listColl
	cacheBytes int    // estimated footprint of the three maps above
	keyBuf     []byte // scratch storage key for point reads

	// delta, when non-nil, records every mutated (name, key) slot so
	// SnapshotDelta can serialize only what changed since a checkpoint.
	delta *deltaTracker
}

// slot is one cached element.
type slot struct {
	val        any
	present    bool // false: the element does not exist
	dirty      bool // differs from the tree; written at the next flush
	treeAbsent bool // the tree is known to hold no live version
}

// mapColl caches the elements of one key's map state.
type mapColl struct {
	slots    map[string]*slot
	complete bool // every live element the tree holds has a slot
}

// listColl caches one key's whole list state.
type listColl struct {
	items   []any
	clean   int // items[:clean] are in the tree at their positions
	treeLen int // the tree may hold live elements at positions [0, treeLen)
	bytes   int // what this list has added to cacheBytes
}

// Estimated cache cost of a slot or collection beyond its keys and payload.
const entryOverhead = 64

// approxSize estimates the heap a decoded value holds.
func approxSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x)
	case []float64:
		return 8 * len(x)
	case []int64:
		return 8 * len(x)
	case nil, float64, int64, bool, *float64, *int64:
		return 8
	}
	return 64
}

// NewLSMBackend opens (or creates) an LSM-backed state store in dir.
func NewLSMBackend(dir string, numGroups int) (*LSMBackend, error) {
	return newLSMBackend(lsm.Options{Dir: dir}, numGroups)
}

func newLSMBackend(opts lsm.Options, numGroups int) (*LSMBackend, error) {
	if numGroups <= 0 {
		numGroups = DefaultKeyGroups
	}
	if numGroups > 1<<16 {
		return nil, fmt.Errorf("state: lsm backend supports at most %d key groups, got %d", 1<<16, numGroups)
	}
	tree, err := lsm.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("state: open lsm backend: %w", err)
	}
	b := &LSMBackend{numGroups: numGroups, tree: tree}
	b.curGroup = KeyGroupFor("", numGroups)
	b.resetCache()
	return b, nil
}

// Tree exposes the underlying LSM tree (used by incremental checkpoints).
func (b *LSMBackend) Tree() *lsm.Tree { return b.tree }

// SetCurrentKey scopes subsequent state access.
func (b *LSMBackend) SetCurrentKey(key string) {
	if key == b.currentKey {
		return
	}
	b.currentKey = key
	b.curGroup = KeyGroupFor(key, b.numGroups)
}

// CurrentKey returns the scoped key.
func (b *LSMBackend) CurrentKey() string { return b.currentKey }

// NumKeyGroups returns the key-group fan-out.
func (b *LSMBackend) NumKeyGroups() int { return b.numGroups }

func (b *LSMBackend) groupOf(key string) int {
	if key == b.currentKey {
		return b.curGroup
	}
	return KeyGroupFor(key, b.numGroups)
}

func (b *LSMBackend) touch(name string) {
	if b.delta != nil {
		b.delta.touch(name, b.currentKey)
	}
}

// --- cache ---

func (b *LSMBackend) resetCache() {
	b.vals = make(map[dirtyKey]*slot)
	b.maps = make(map[dirtyKey]*mapColl)
	b.lists = make(map[dirtyKey]*listColl)
	b.cacheBytes = 0
}

// admit runs at the start of every state operation, before it holds any
// cache entry: a cache over its budget is written out and emptied.
func (b *LSMBackend) admit() {
	if b.cacheBytes <= b.tree.MemtableBytes() {
		return
	}
	if err := b.flush(); err != nil {
		panic(fmt.Sprintf("state: lsm spill: %v", err))
	}
	b.resetCache()
}

// readSlot reads one element through from the tree. A failed read or an
// undecodable value panics — the engine turns that into a job failure and a
// restart from the last checkpoint — because answering "no state" would
// silently reset whatever the element held.
func (b *LSMBackend) readSlot(kind byte, name, elem string) *slot {
	b.keyBuf = appendStorageKey(b.keyBuf[:0], b.curGroup, kind, name, b.currentKey, elem)
	raw, found, err := b.tree.Get(b.keyBuf)
	if err != nil {
		panic(fmt.Sprintf("state: lsm get: %v", err))
	}
	if !found {
		return &slot{treeAbsent: true}
	}
	v, err := decodeValue(raw)
	if err != nil {
		panic(fmt.Sprintf("state: lsm get %s[%q]: %v", name, b.currentKey, err))
	}
	return &slot{val: v, present: true}
}

func slotCost(keyLen int, sl *slot) int { return keyLen + entryOverhead + approxSize(sl.val) }

// set stores v in the slot.
func (b *LSMBackend) set(sl *slot, v any) {
	b.cacheBytes += approxSize(v) - approxSize(sl.val)
	sl.val, sl.present, sl.dirty = v, true, true
}

// unset removes the slot's element. It reports whether the slot may be
// forgotten: that is so when the element never reached the tree, and then no
// tombstone is owed either.
func (b *LSMBackend) unset(sl *slot) (forget bool) {
	if sl.treeAbsent {
		return true
	}
	b.cacheBytes += approxSize(nil) - approxSize(sl.val)
	sl.val, sl.present, sl.dirty = nil, false, true
	return false
}

// flush writes every dirty cache entry to the tree as one sorted batch — one
// WAL append — and forgets the elements it deleted. The cache stays untouched
// when the write fails, so the next flush retries it.
func (b *LSMBackend) flush() error {
	var batch []lsm.Write
	add := func(kind byte, id dirtyKey, elem string, v any, present bool) error {
		w := lsm.Write{Key: appendStorageKey(nil, b.groupOf(id.key), kind, id.name, id.key, elem), Delete: !present}
		if present {
			var err error
			if w.Value, err = encodeValue(v); err != nil {
				return err
			}
		}
		batch = append(batch, w)
		return nil
	}
	// What was written, to settle once the tree has it.
	type mapSlot struct {
		id  dirtyKey
		c   *mapColl
		sub string
	}
	var vals []dirtyKey
	var slots []mapSlot
	for id, sl := range b.vals {
		if sl.dirty {
			if err := add(kindValue, id, "", sl.val, sl.present); err != nil {
				return err
			}
			vals = append(vals, id)
		}
	}
	for id, c := range b.maps {
		for sub, sl := range c.slots {
			if sl.dirty {
				if err := add(kindMap, id, sub, sl.val, sl.present); err != nil {
					return err
				}
				slots = append(slots, mapSlot{id, c, sub})
			}
		}
	}
	var pos [8]byte
	for id, l := range b.lists {
		// Items past the clean prefix are written; positions a cleared,
		// longer list left in the tree are deleted.
		for i := l.clean; i < max(len(l.items), l.treeLen); i++ {
			binary.BigEndian.PutUint64(pos[:], uint64(i))
			var err error
			if i < len(l.items) {
				err = add(kindList, id, string(pos[:]), l.items[i], true)
			} else {
				err = add(kindList, id, string(pos[:]), nil, false)
			}
			if err != nil {
				return err
			}
		}
	}
	slices.SortFunc(batch, func(x, y lsm.Write) int { return bytes.Compare(x.Key, y.Key) })
	if err := b.tree.Apply(batch); err != nil {
		return fmt.Errorf("state: lsm flush: %w", err)
	}

	// The tree now agrees with every slot written; a deleted one is forgotten.
	settle := func(sl *slot) (gone bool) {
		sl.dirty, sl.treeAbsent = false, !sl.present
		return !sl.present
	}
	for _, id := range vals {
		if sl := b.vals[id]; settle(sl) {
			b.cacheBytes -= slotCost(len(id.name)+len(id.key), sl)
			delete(b.vals, id)
		}
	}
	for _, s := range slots {
		if sl := s.c.slots[s.sub]; settle(sl) {
			b.dropSlot(s.id, s.c, s.sub, sl)
		}
	}
	for id, l := range b.lists {
		l.clean, l.treeLen = len(l.items), len(l.items)
		if len(l.items) == 0 {
			b.dropList(id, l)
		}
	}
	return nil
}

// --- value state ---

// Value returns the named single-value state handle.
func (b *LSMBackend) Value(name string) ValueState { return &lsmValue{b: b, name: name} }

type lsmValue struct {
	b    *LSMBackend
	name string
}

// slot returns the current key's cached slot, reading it through from the
// tree when read is set and creating a blank one otherwise.
func (s *lsmValue) slot(read bool) *slot {
	b := s.b
	b.admit()
	id := dirtyKey{s.name, b.currentKey}
	sl := b.vals[id]
	if sl == nil {
		if read {
			sl = b.readSlot(kindValue, s.name, "")
		} else {
			sl = &slot{}
		}
		b.vals[id] = sl
		b.cacheBytes += slotCost(len(id.name)+len(id.key), sl)
	}
	return sl
}

func (s *lsmValue) Get() (any, bool) {
	sl := s.slot(true)
	return sl.val, sl.present
}

func (s *lsmValue) Set(v any) {
	switch v.(type) {
	case map[string]any, []any:
		panic(fmt.Sprintf("state: lsm value state %q cannot hold a %T: use map or list state", s.name, v))
	}
	s.b.touch(s.name)
	s.b.set(s.slot(false), v)
}

func (s *lsmValue) Clear() {
	b := s.b
	b.touch(s.name)
	sl := s.slot(true)
	if sl.present && b.unset(sl) {
		id := dirtyKey{s.name, b.currentKey}
		b.cacheBytes -= slotCost(len(id.name)+len(id.key), sl)
		delete(b.vals, id)
	}
}

// --- map state ---

// Map returns the named map state handle; each entry is its own tree entry.
func (b *LSMBackend) Map(name string) MapState { return &lsmMap{b: b, name: name} }

type lsmMap struct {
	b    *LSMBackend
	name string
}

func collCost(id dirtyKey) int { return len(id.name) + len(id.key) + entryOverhead }

// coll returns the current key's cached collection, creating it on first use.
func (s *lsmMap) coll() (dirtyKey, *mapColl) {
	b := s.b
	id := dirtyKey{s.name, b.currentKey}
	c := b.maps[id]
	if c == nil {
		c = &mapColl{slots: make(map[string]*slot)}
		b.maps[id] = c
		b.cacheBytes += collCost(id)
	}
	return id, c
}

func (b *LSMBackend) addSlot(c *mapColl, sub string, sl *slot) {
	c.slots[sub] = sl
	b.cacheBytes += slotCost(len(sub), sl)
}

// dropSlot forgets a slot, and its collection once that is empty.
func (b *LSMBackend) dropSlot(id dirtyKey, c *mapColl, sub string, sl *slot) {
	b.cacheBytes -= slotCost(len(sub), sl)
	delete(c.slots, sub)
	b.releaseIfEmpty(id, c)
}

// releaseIfEmpty forgets a collection without slots: it says no more than a
// key never seen does, so nothing of a closed key stays behind.
func (b *LSMBackend) releaseIfEmpty(id dirtyKey, c *mapColl) {
	if len(c.slots) == 0 && b.maps[id] == c {
		b.cacheBytes -= collCost(id)
		delete(b.maps, id)
	}
}

// removeSlot deletes one element: a tombstone stays cached when the tree may
// hold the element, and nothing stays when it cannot.
func (b *LSMBackend) removeSlot(id dirtyKey, c *mapColl, sub string, sl *slot) {
	if sl.present && b.unset(sl) || !sl.present && !sl.dirty {
		b.dropSlot(id, c, sub, sl)
	}
}

// lookup returns the slot of one element, reading it through on a miss.
func (s *lsmMap) lookup(sub string) (dirtyKey, *mapColl, *slot) {
	b := s.b
	b.admit()
	id, c := s.coll()
	sl := c.slots[sub]
	if sl == nil {
		if c.complete {
			sl = &slot{treeAbsent: true}
		} else {
			sl = b.readSlot(kindMap, s.name, sub)
		}
		b.addSlot(c, sub, sl)
	}
	return id, c, sl
}

func (s *lsmMap) Get(mapKey string) (any, bool) {
	_, _, sl := s.lookup(mapKey)
	if sl.present && IsCell(sl.val) {
		// The caller may mutate the cell: write it at the next flush.
		sl.dirty = true
		s.b.touch(s.name)
	}
	return sl.val, sl.present
}

func (s *lsmMap) Put(mapKey string, v any) {
	b := s.b
	b.admit()
	b.touch(s.name)
	_, c := s.coll()
	sl := c.slots[mapKey]
	if sl == nil {
		sl = &slot{treeAbsent: c.complete}
		b.addSlot(c, mapKey, sl)
	}
	b.set(sl, v)
}

func (s *lsmMap) Remove(mapKey string) {
	s.b.touch(s.name)
	id, c, sl := s.lookup(mapKey)
	s.b.removeSlot(id, c, mapKey, sl)
}

// load makes the current key's collection complete: one range scan over the
// key's prefix adds a slot for every element the cache does not know yet.
func (s *lsmMap) load() (dirtyKey, *mapColl) {
	b := s.b
	b.admit()
	id, c := s.coll()
	if c.complete {
		return id, c
	}
	prefix := appendStorageKey(nil, b.curGroup, kindMap, s.name, b.currentKey, "")
	b.scan(prefix, prefixEnd(prefix), func(k []byte, v any) {
		if sub := k[len(prefix):]; c.slots[string(sub)] == nil {
			b.addSlot(c, string(sub), &slot{val: v, present: true})
		}
	})
	c.complete = true
	return id, c
}

func (s *lsmMap) Keys() []string {
	id, c := s.load()
	keys := make([]string, 0, len(c.slots))
	for sub, sl := range c.slots {
		if sl.present {
			keys = append(keys, sub)
		}
	}
	s.b.releaseIfEmpty(id, c)
	sort.Strings(keys)
	return keys
}

func (s *lsmMap) Clear() {
	b := s.b
	b.touch(s.name)
	id, c := s.load()
	for sub, sl := range c.slots {
		b.removeSlot(id, c, sub, sl)
	}
	b.releaseIfEmpty(id, c)
}

// --- list state ---

// List returns the named list state handle; each item is its own tree entry,
// keyed by its position.
func (b *LSMBackend) List(name string) ListState { return &lsmList{b: b, name: name} }

type lsmList struct {
	b    *LSMBackend
	name string
}

// list returns the current key's cached list, loading it with one range scan
// on first touch.
func (s *lsmList) list() (dirtyKey, *listColl) {
	b := s.b
	b.admit()
	id := dirtyKey{s.name, b.currentKey}
	l := b.lists[id]
	if l != nil {
		return id, l
	}
	l = &listColl{bytes: collCost(id)}
	prefix := appendStorageKey(nil, b.curGroup, kindList, s.name, b.currentKey, "")
	b.scan(prefix, prefixEnd(prefix), func(k []byte, v any) {
		if pos := k[len(prefix):]; len(pos) == 8 {
			l.treeLen = int(binary.BigEndian.Uint64(pos)) + 1
		}
		l.items = append(l.items, v)
		l.bytes += 16 + approxSize(v)
	})
	l.clean = len(l.items)
	l.treeLen = max(l.treeLen, l.clean)
	b.lists[id] = l
	b.cacheBytes += l.bytes
	return id, l
}

func (b *LSMBackend) dropList(id dirtyKey, l *listColl) {
	b.cacheBytes -= l.bytes
	delete(b.lists, id)
}

func (s *lsmList) Append(v any) {
	s.b.touch(s.name)
	_, l := s.list()
	l.items = append(l.items, v)
	n := 16 + approxSize(v)
	l.bytes += n
	s.b.cacheBytes += n
}

func (s *lsmList) Get() []any {
	id, l := s.list()
	if len(l.items) == 0 && l.treeLen == 0 {
		s.b.dropList(id, l) // nothing cached worth keeping for an empty list
	}
	return l.items
}

func (s *lsmList) Clear() {
	s.b.touch(s.name)
	id, l := s.list()
	s.b.cacheBytes -= l.bytes - collCost(id)
	l.items, l.clean, l.bytes = nil, 0, collCost(id)
	if l.treeLen == 0 {
		s.b.dropList(id, l)
	}
}

// --- whole-tree reads ---

// scan calls fn with every entry of [start, end) decoded, and panics on a
// failed read or an undecodable value, like readSlot.
func (b *LSMBackend) scan(start, end []byte, fn func(k []byte, v any)) {
	if err := b.scanErr(start, end, fn); err != nil {
		panic(fmt.Sprintf("state: lsm scan: %v", err))
	}
}

func (b *LSMBackend) scanErr(start, end []byte, fn func(k []byte, v any)) error {
	var decErr error
	err := b.tree.Scan(start, end, func(k, raw []byte) bool {
		var v any
		if v, decErr = decodeValue(raw); decErr != nil {
			decErr = fmt.Errorf("entry %x: %w", k, decErr)
			return false
		}
		fn(k, v)
		return true
	})
	return cmp.Or(err, decErr)
}

// gather folds one tree entry into kvs, the key -> value map of one state
// name as an Image spells it: map entries of a key collect into a
// map[string]any, list items — which the scan delivers in position order —
// into a []any.
func gather(kvs map[string]any, kind byte, key, elem []byte, v any) {
	switch kind {
	case kindMap:
		m, _ := kvs[string(key)].(map[string]any)
		if m == nil {
			m = make(map[string]any)
			kvs[string(key)] = m
		}
		m[string(elem)] = v
	case kindList:
		l, _ := kvs[string(key)].([]any)
		kvs[string(key)] = append(l, v)
	default:
		kvs[string(key)] = v
	}
}

// Snapshot serialises all state into the canonical Image format, so LSM
// snapshots are portable to other backends.
func (b *LSMBackend) Snapshot() ([]byte, error) {
	all := make([]int, b.numGroups)
	for i := range all {
		all[i] = i
	}
	return b.ExportGroups(all)
}

// ExportGroups serialises the given key groups into the canonical Image,
// reading only those groups' key ranges.
func (b *LSMBackend) ExportGroups(groups []int) ([]byte, error) {
	if err := b.flush(); err != nil {
		return nil, err
	}
	groups = slices.Clone(groups)
	slices.Sort(groups)
	img := Image{NumGroups: b.numGroups, Groups: make(map[int]map[string]map[string]any)}
	for i := 0; i < len(groups); {
		if groups[i] < 0 || groups[i] >= b.numGroups {
			return nil, fmt.Errorf("state: key group %d out of range [0,%d)", groups[i], b.numGroups)
		}
		// One scan per run of adjacent groups.
		j := i + 1
		for j < len(groups) && groups[j] <= groups[j-1]+1 {
			j++
		}
		if err := b.exportInto(img, groupStart(groups[i]), groupStart(groups[j-1]+1)); err != nil {
			return nil, err
		}
		i = j
	}
	return EncodeImage(img)
}

// exportInto builds the image of the live entries in [start, end).
func (b *LSMBackend) exportInto(img Image, start, end []byte) error {
	var badKey []byte
	err := b.scanErr(start, end, func(k []byte, v any) {
		g, kind, name, key, elem, ok := parseStorageKey(k)
		if !ok {
			badKey = append([]byte(nil), k...)
			return
		}
		names := img.Groups[g]
		if names == nil {
			names = make(map[string]map[string]any)
			img.Groups[g] = names
		}
		kvs := names[string(name)]
		if kvs == nil {
			kvs = make(map[string]any)
			names[string(name)] = kvs
		}
		gather(kvs, kind, key, elem, v)
	})
	if err == nil && badKey != nil {
		err = fmt.Errorf("malformed storage key %x", badKey)
	}
	if err != nil {
		return fmt.Errorf("state: lsm export: %w", err)
	}
	return nil
}

// Restore replaces the backend's contents with a snapshot image.
func (b *LSMBackend) Restore(data []byte) error {
	img, err := b.decodeForImport(data)
	if err != nil {
		return err
	}
	b.resetCache()
	if err := b.tree.ReplaceWithFiles(nil); err != nil {
		return fmt.Errorf("state: lsm restore: %w", err)
	}
	return b.tree.Apply(imageWrites(nil, img))
}

// ImportGroups merges an exported image into this backend: the groups it
// carries replace this backend's contents of those groups.
func (b *LSMBackend) ImportGroups(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	img, err := b.decodeForImport(data)
	if err != nil {
		return err
	}
	if err := b.flush(); err != nil {
		return err
	}
	b.resetCache()
	var batch []lsm.Write
	for _, g := range sortedKeys(img.Groups) {
		err := b.tree.Scan(groupStart(g), groupStart(g+1), func(k, _ []byte) bool {
			batch = append(batch, lsm.Write{Key: append([]byte(nil), k...), Delete: true})
			return true
		})
		if err != nil {
			return fmt.Errorf("state: lsm import: %w", err)
		}
	}
	return b.tree.Apply(imageWrites(batch, img))
}

// decodeForImport decodes an image and checks it fits this backend, so keys
// never land in groups the instance does not own.
func (b *LSMBackend) decodeForImport(data []byte) (Image, error) {
	img, err := DecodeImage(data)
	if err != nil {
		return Image{}, err
	}
	if len(data) > 0 && img.NumGroups != b.numGroups {
		return Image{}, fmt.Errorf("state: key-group count mismatch: snapshot has %d, backend has %d",
			img.NumGroups, b.numGroups)
	}
	for g := range img.Groups {
		if g < 0 || g >= b.numGroups {
			return Image{}, fmt.Errorf("state: imported group %d out of range", g)
		}
	}
	return img, nil
}

// imageWrites appends the tree writes that store an image, in sorted (group,
// name, key, element) order. The image is nested maps; iterating them
// directly would feed the tree (WAL frame order, memtable flush boundaries)
// in a different order each run, so two imports of the same image would
// produce byte-different trees — which defeats incremental checkpoints'
// unchanged-file sharing right after a rescale import.
func imageWrites(batch []lsm.Write, img Image) []lsm.Write {
	put := func(g int, kind byte, name, key, elem string, v any) {
		raw, err := encodeValue(v)
		if err != nil {
			// The image was just gob-decoded, so every value in it is of a
			// registered type and encodes.
			panic(fmt.Sprintf("state: lsm import: %v", err))
		}
		batch = append(batch, lsm.Write{Key: appendStorageKey(nil, g, kind, name, key, elem), Value: raw})
	}
	var pos [8]byte
	for _, g := range sortedKeys(img.Groups) {
		names := img.Groups[g]
		for _, name := range sortedKeys(names) {
			kvs := names[name]
			for _, key := range sortedKeys(kvs) {
				switch v := kvs[key].(type) {
				case map[string]any:
					for _, sub := range sortedKeys(v) {
						put(g, kindMap, name, key, sub, v[sub])
					}
				case []any:
					for i, item := range v {
						binary.BigEndian.PutUint64(pos[:], uint64(i))
						put(g, kindList, name, key, string(pos[:]), item)
					}
				default:
					put(g, kindValue, name, key, "", v)
				}
			}
		}
	}
	return batch
}

// sortedKeys returns m's keys sorted, for deterministic application of
// nested-map images.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ForEachKey iterates all keys under the named state. The pairs are
// collected before fn sees the first one, so fn may use the backend.
func (b *LSMBackend) ForEachKey(name string, fn func(key string, value any) bool) {
	if err := b.flush(); err != nil {
		panic(fmt.Sprintf("state: lsm flush: %v", err))
	}
	kvs := make(map[string]any)
	b.scan(nil, nil, func(k []byte, v any) {
		_, kind, n, key, elem, ok := parseStorageKey(k)
		if !ok {
			panic(fmt.Sprintf("state: lsm scan: malformed storage key %x", k))
		}
		if string(n) == name {
			gather(kvs, kind, key, elem, v)
		}
	})
	for _, key := range sortedKeys(kvs) {
		if !fn(key, kvs[key]) {
			return
		}
	}
}

// Dispose writes out the cache and closes the LSM tree.
func (b *LSMBackend) Dispose() error {
	return errors.Join(b.flush(), b.tree.Close())
}

var _ Backend = (*LSMBackend)(nil)
