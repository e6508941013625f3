package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
)

// MemoryBackend keeps all state on the heap, organised as
// keyGroup -> stateName -> key -> value. It is the "internally managed"
// backend of §3.1 (Flink-style in-memory state) and the default for jobs.
// A map state's value for a key is its *mapRow; images hold it as a
// map[string]any.
type MemoryBackend struct {
	numGroups  int
	currentKey string
	curGroup   int                         // key group of currentKey, or -1 until a state needs it
	groups     []map[string]map[string]any // group -> name -> key -> value

	// Handles are memoized per state name: operators call e.g. State().Map(n)
	// on every record, and a fresh handle per call is a hot-path allocation.
	mapHandles map[string]*memMap
	valHandles map[string]*memValue

	// delta, when non-nil, records every mutated (name, key) slot so
	// SnapshotDelta can serialize only what changed since a checkpoint.
	delta *deltaTracker
}

// NewMemoryBackend returns an empty backend with the given key-group count
// (0 means DefaultKeyGroups).
func NewMemoryBackend(numGroups int) *MemoryBackend {
	if numGroups <= 0 {
		numGroups = DefaultKeyGroups
	}
	return &MemoryBackend{
		numGroups:  numGroups,
		curGroup:   -1,
		groups:     make([]map[string]map[string]any, numGroups),
		mapHandles: make(map[string]*memMap),
		valHandles: make(map[string]*memValue),
	}
}

// SetCurrentKey scopes subsequent state access. It does not hash the key:
// map state finds the key's row without its group.
func (b *MemoryBackend) SetCurrentKey(key string) {
	if key != b.currentKey {
		b.currentKey, b.curGroup = key, -1
	}
}

// CurrentKey returns the scoped key.
func (b *MemoryBackend) CurrentKey() string { return b.currentKey }

// NumKeyGroups returns the key-group fan-out.
func (b *MemoryBackend) NumKeyGroups() int { return b.numGroups }

// groupOf resolves a key's group, hashing the current key at most once.
func (b *MemoryBackend) groupOf(key string) int {
	if key != b.currentKey {
		return KeyGroupFor(key, b.numGroups)
	}
	if b.curGroup < 0 {
		b.curGroup = KeyGroupFor(key, b.numGroups)
	}
	return b.curGroup
}

// slot returns the key -> value map of name in key's group, creating it.
func (b *MemoryBackend) slot(name, key string) map[string]any {
	g := b.groupOf(key)
	if b.groups[g] == nil {
		b.groups[g] = make(map[string]map[string]any)
	}
	m := b.groups[g][name]
	if m == nil {
		m = make(map[string]any)
		b.groups[g][name] = m
	}
	return m
}

func (b *MemoryBackend) get(name, key string) (any, bool) {
	g := b.groupOf(key)
	if b.groups[g] == nil {
		return nil, false
	}
	v, ok := b.groups[g][name][key]
	return v, ok
}

// logical returns what the slot (name, key) holds as an image or a delta op
// spells it.
func (b *MemoryBackend) logical(name, key string) (any, bool) { return imageValue(b.get(name, key)) }

// imageValue returns a stored value as images hold it: a map state's row as
// a map[string]any, an empty row as absent.
func imageValue(v any, ok bool) (any, bool) {
	r, isRow := v.(*mapRow)
	if !isRow {
		return v, ok
	}
	if len(r.slots) == 0 {
		return nil, false
	}
	m := make(map[string]any, len(r.slots))
	for _, sl := range r.slots {
		m[sl.key] = sl.val
	}
	return m, true
}

func (b *MemoryBackend) put(name, key string, v any) {
	if b.delta != nil {
		b.delta.touch(name, key)
	}
	b.slot(name, key)[key] = v
}

func (b *MemoryBackend) del(name, key string) {
	if b.delta != nil {
		b.delta.touch(name, key)
	}
	g := b.groupOf(key)
	if b.groups[g] == nil {
		return
	}
	if m := b.groups[g][name]; m != nil {
		delete(m, key)
	}
}

// Value returns the named single-value state handle.
func (b *MemoryBackend) Value(name string) ValueState {
	h := b.valHandles[name]
	if h == nil {
		h = &memValue{b: b, name: name}
		b.valHandles[name] = h
	}
	return h
}

// List returns the named list state handle.
func (b *MemoryBackend) List(name string) ListState { return &memList{b: b, name: name} }

// Map returns the named map state handle.
func (b *MemoryBackend) Map(name string) MapState {
	h := b.mapHandles[name]
	if h == nil {
		h = &memMap{b: b, name: name}
		h.reindex()
		b.mapHandles[name] = h
	}
	return h
}

// invalidateHandles rebuilds the map-state indexes after bulk state swaps.
func (b *MemoryBackend) invalidateHandles() {
	for _, h := range b.mapHandles {
		h.reindex()
	}
}

// Reducing returns the named reducing state handle.
func (b *MemoryBackend) Reducing(name string, reduce func(a, b any) any) ReducingState {
	return &memReducing{b: b, name: name, reduce: reduce}
}

type memValue struct {
	b    *MemoryBackend
	name string
}

func (s *memValue) Get() (any, bool) { return s.b.get(s.name, s.b.currentKey) }
func (s *memValue) Set(v any)        { s.b.put(s.name, s.b.currentKey, v) }
func (s *memValue) Clear()           { s.b.del(s.name, s.b.currentKey) }

type memList struct {
	b    *MemoryBackend
	name string
}

func (s *memList) Append(v any) {
	cur, _ := s.b.get(s.name, s.b.currentKey)
	list, _ := cur.([]any)
	s.b.put(s.name, s.b.currentKey, append(list, v))
}

func (s *memList) Get() []any {
	cur, _ := s.b.get(s.name, s.b.currentKey)
	list, _ := cur.([]any)
	return list
}

func (s *memList) Clear() { s.b.del(s.name, s.b.currentKey) }

// memMap is a map state. Every key's entries live in one row, found through
// index with one probe and no key-group hash. A row emptied by Remove or
// Clear stays in index and in its group's map, so the key's next window
// reuses it; images, ForEachKey and delta ops skip it, and prune drops the
// empty rows whenever the index has doubled since the last prune.
type memMap struct {
	b       *MemoryBackend
	name    string
	index   map[string]*mapRow // key -> row, every row of this state
	pruneAt int                // index size that triggers the next prune
	// cur caches the row of curKey: one record's Get-then-Put probes once.
	curKey string
	cur    *mapRow
}

// mapRow holds one key's entries, sorted by sub-key. The first few live in
// the row itself, so finding one loads no second object.
type mapRow struct {
	group  int
	slots  []mapSlot // backed by inline until it outgrows it
	inline [2]mapSlot
}

func newRow(group int) *mapRow {
	r := &mapRow{group: group}
	r.slots = r.inline[:0]
	return r
}

type mapSlot struct {
	key string
	val any
}

// find returns the position of sub-key k in the row, or where it would go.
func (r *mapRow) find(k string) (int, bool) {
	if len(r.slots) <= len(r.inline) {
		// A window operator asks again for the sub-key string it stored, and
		// string equality tests the pointer before the bytes.
		for i := range r.slots {
			if r.slots[i].key == k {
				return i, true
			}
		}
	}
	lo, hi := 0, len(r.slots)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.slots[m].key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.slots) && r.slots[lo].key == k
}

// minPrune is the smallest index size that triggers a prune.
const minPrune = 64

// reindex rebuilds index from the group maps, turning the plain maps a
// restore, import or delta left there into rows.
func (s *memMap) reindex() {
	s.index = make(map[string]*mapRow)
	s.cur, s.curKey = nil, ""
	for g, names := range s.b.groups {
		kv := names[s.name]
		for k, v := range kv {
			r, ok := v.(*mapRow)
			if !ok {
				m, isMap := v.(map[string]any)
				if !isMap {
					continue
				}
				r = newRow(g)
				for sub, val := range m {
					r.slots = append(r.slots, mapSlot{sub, val})
				}
				slices.SortFunc(r.slots, func(x, y mapSlot) int { return strings.Compare(x.key, y.key) })
				kv[k] = r
			}
			s.index[k] = r
		}
	}
}

// row returns the current key's row, creating an empty one if asked.
func (s *memMap) row(create bool) *mapRow {
	key := s.b.currentKey
	if s.cur != nil && s.curKey == key {
		return s.cur
	}
	r := s.index[key]
	if r == nil {
		if !create {
			return nil
		}
		if len(s.index) >= s.pruneAt {
			s.prune()
		}
		r = newRow(s.b.groupOf(key))
		s.b.slot(s.name, key)[key] = r
		s.index[key] = r
	}
	s.curKey, s.cur = key, r
	return r
}

// prune drops the empty rows, so a job whose keys churn keeps an index of
// O(live keys) at amortised O(1) per new row.
func (s *memMap) prune() {
	for k, r := range s.index {
		if len(r.slots) == 0 {
			delete(s.index, k)
			delete(s.b.groups[r.group][s.name], k)
		}
	}
	s.pruneAt = max(2*len(s.index), minPrune)
	s.cur, s.curKey = nil, ""
}

func (s *memMap) Put(mapKey string, v any) {
	if s.b.delta != nil {
		s.b.delta.touch(s.name, s.b.currentKey)
	}
	r := s.row(true)
	i, ok := r.find(mapKey)
	if ok {
		r.slots[i].val = v
		return
	}
	r.slots = slices.Insert(r.slots, i, mapSlot{mapKey, v})
}

func (s *memMap) Get(mapKey string) (any, bool) {
	r := s.row(false)
	if r == nil {
		return nil, false
	}
	i, ok := r.find(mapKey)
	if !ok {
		return nil, false
	}
	v := r.slots[i].val
	if s.b.delta != nil && IsCell(v) {
		s.b.delta.touch(s.name, s.b.currentKey) // the caller may mutate it
	}
	return v, true
}

func (s *memMap) Remove(mapKey string) {
	r := s.row(false)
	if r == nil {
		return
	}
	i, ok := r.find(mapKey)
	if !ok {
		return
	}
	if s.b.delta != nil {
		s.b.delta.touch(s.name, s.b.currentKey)
	}
	r.slots = slices.Delete(r.slots, i, i+1)
}

func (s *memMap) Keys() []string {
	r := s.row(false)
	if r == nil {
		return []string{}
	}
	keys := make([]string, len(r.slots))
	for i, sl := range r.slots {
		keys[i] = sl.key
	}
	return keys
}

func (s *memMap) Clear() {
	if s.b.delta != nil {
		s.b.delta.touch(s.name, s.b.currentKey)
	}
	if r := s.row(false); r != nil {
		clear(r.slots)
		r.slots = r.slots[:0]
	}
}

type memReducing struct {
	b      *MemoryBackend
	name   string
	reduce func(a, b any) any
}

func (s *memReducing) Add(v any) {
	cur, ok := s.b.get(s.name, s.b.currentKey)
	if !ok {
		s.b.put(s.name, s.b.currentKey, v)
		return
	}
	s.b.put(s.name, s.b.currentKey, s.reduce(cur, v))
}

func (s *memReducing) Get() (any, bool) { return s.b.get(s.name, s.b.currentKey) }
func (s *memReducing) Clear()           { s.b.del(s.name, s.b.currentKey) }

// Image is the canonical serialised form of a (subset of a) backend's keyed
// state, shared by every backend implementation so snapshots are portable
// across backends (a checkpoint taken on the memory backend restores into an
// LSM backend and vice versa) and can be filtered by key group offline for
// rescaling (E13).
type Image struct {
	NumGroups int
	// Groups maps group index -> state name -> key -> value.
	Groups map[int]map[string]map[string]any
}

// EncodeImage serialises an image.
func EncodeImage(img Image) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("state: encode image: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeImage deserialises an image.
func DecodeImage(data []byte) (Image, error) {
	var img Image
	if len(data) == 0 {
		return Image{Groups: map[int]map[string]map[string]any{}}, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return Image{}, fmt.Errorf("state: decode image: %w", err)
	}
	if img.Groups == nil {
		img.Groups = map[int]map[string]map[string]any{}
	}
	return img, nil
}

// FilterImage returns a new serialised image containing only the key groups
// accepted by keep. It is how a rescale redistributes old instance snapshots
// to new instances owning different group ranges.
func FilterImage(data []byte, keep func(group int) bool) ([]byte, error) {
	img, err := DecodeImage(data)
	if err != nil {
		return nil, err
	}
	out := Image{NumGroups: img.NumGroups, Groups: make(map[int]map[string]map[string]any)}
	for g, names := range img.Groups {
		if keep(g) {
			out.Groups[g] = names
		}
	}
	return EncodeImage(out)
}

// Snapshot serialises the entire backend.
func (b *MemoryBackend) Snapshot() ([]byte, error) {
	all := make([]int, b.numGroups)
	for i := range all {
		all[i] = i
	}
	return b.ExportGroups(all)
}

// Restore replaces backend contents from a snapshot.
func (b *MemoryBackend) Restore(data []byte) error {
	b.groups = make([]map[string]map[string]any, b.numGroups)
	b.invalidateHandles()
	return b.ImportGroups(data)
}

// ExportGroups serialises the given key groups.
func (b *MemoryBackend) ExportGroups(groups []int) ([]byte, error) {
	img := Image{NumGroups: b.numGroups, Groups: make(map[int]map[string]map[string]any)}
	for _, g := range groups {
		if g < 0 || g >= b.numGroups {
			return nil, fmt.Errorf("state: key group %d out of range [0,%d)", g, b.numGroups)
		}
		if names := b.imageOf(g); names != nil {
			img.Groups[g] = names
		}
	}
	return EncodeImage(img)
}

// imageOf returns group g's live state as an image holds it: rows as maps,
// no empty row, state or group.
func (b *MemoryBackend) imageOf(g int) map[string]map[string]any {
	var out map[string]map[string]any
	for name, kv := range b.groups[g] {
		live := make(map[string]any, len(kv))
		for k, v := range kv {
			if v, ok := imageValue(v, true); ok {
				live[k] = v
			}
		}
		if len(live) > 0 {
			if out == nil {
				out = make(map[string]map[string]any)
			}
			out[name] = live
		}
	}
	return out
}

// ImportGroups merges previously exported groups into this backend. Imported
// groups replace existing contents of the same group.
func (b *MemoryBackend) ImportGroups(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	img, err := DecodeImage(data)
	if err != nil {
		return err
	}
	if img.NumGroups != b.numGroups {
		return fmt.Errorf("state: key-group count mismatch: snapshot has %d, backend has %d",
			img.NumGroups, b.numGroups)
	}
	for g, names := range img.Groups {
		if g < 0 || g >= b.numGroups {
			return fmt.Errorf("state: imported group %d out of range", g)
		}
		b.groups[g] = names
	}
	b.invalidateHandles()
	return nil
}

// ForEachKey iterates all keys under the named value state.
func (b *MemoryBackend) ForEachKey(name string, fn func(key string, value any) bool) {
	for _, g := range b.groups {
		for k, v := range g[name] {
			if v, ok := imageValue(v, true); ok && !fn(k, v) {
				return
			}
		}
	}
}

// Dispose is a no-op for the memory backend.
func (b *MemoryBackend) Dispose() error { return nil }

var _ Backend = (*MemoryBackend)(nil)
