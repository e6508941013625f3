package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// MemoryBackend keeps all state on the heap, organised as
// keyGroup -> stateName -> key -> value. It is the "internally managed"
// backend of §3.1 (Flink-style in-memory state) and the default for jobs.
type MemoryBackend struct {
	numGroups  int
	currentKey string
	curGroup   int                         // key group of currentKey, hashed once per SetCurrentKey
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
	b := &MemoryBackend{
		numGroups:  numGroups,
		groups:     make([]map[string]map[string]any, numGroups),
		mapHandles: make(map[string]*memMap),
		valHandles: make(map[string]*memValue),
	}
	b.curGroup = KeyGroupFor("", numGroups)
	return b
}

// SetCurrentKey scopes subsequent state access.
func (b *MemoryBackend) SetCurrentKey(key string) {
	if key == b.currentKey {
		return
	}
	b.currentKey = key
	b.curGroup = KeyGroupFor(key, b.numGroups)
}

// CurrentKey returns the scoped key.
func (b *MemoryBackend) CurrentKey() string { return b.currentKey }

// NumKeyGroups returns the key-group fan-out.
func (b *MemoryBackend) NumKeyGroups() int { return b.numGroups }

// groupOf resolves a key's group, reusing the hash done by SetCurrentKey for
// the common scoped-access case.
func (b *MemoryBackend) groupOf(key string) int {
	if key == b.currentKey {
		return b.curGroup
	}
	return KeyGroupFor(key, b.numGroups)
}

func (b *MemoryBackend) slot(name, key string) (map[string]any, string) {
	g := b.groupOf(key)
	if b.groups[g] == nil {
		b.groups[g] = make(map[string]map[string]any)
	}
	m := b.groups[g][name]
	if m == nil {
		m = make(map[string]any)
		b.groups[g][name] = m
	}
	return m, key
}

func (b *MemoryBackend) get(name, key string) (any, bool) {
	g := b.groupOf(key)
	if b.groups[g] == nil {
		return nil, false
	}
	m := b.groups[g][name]
	if m == nil {
		return nil, false
	}
	v, ok := m[key]
	return v, ok
}

func (b *MemoryBackend) put(name, key string, v any) {
	if b.delta != nil {
		b.delta.touch(name, key)
	}
	m, k := b.slot(name, key)
	m[k] = v
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
		b.mapHandles[name] = h
	}
	return h
}

// invalidateHandles drops cached per-key lookups after bulk state swaps.
func (b *MemoryBackend) invalidateHandles() {
	for _, h := range b.mapHandles {
		h.cur, h.curKey, h.km = nil, "", nil
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

type memMap struct {
	b    *MemoryBackend
	name string
	// cur caches the inner map resolved for curKey, so repeated accesses for
	// one record (the common Get-then-Put) descend the group/name/key maps
	// once; km caches the group→(key→value) map for this state name so the
	// per-record descent skips re-hashing the name. Clear resets cur; bulk
	// restores invalidate both.
	curKey string
	cur    map[string]any
	km     []map[string]any
	// spare holds inner maps Remove emptied and dropped, for the next key
	// that needs one: a window fire empties a key's map and a later record
	// refills it, which would otherwise cost an allocation per key per
	// window.
	spare []map[string]any
}

func (s *memMap) inner(create bool) map[string]any {
	b := s.b
	key := b.currentKey
	if s.cur != nil && s.curKey == key {
		return s.cur
	}
	if s.km == nil {
		s.km = make([]map[string]any, b.numGroups)
	}
	g := b.groupOf(key)
	km := s.km[g]
	if km == nil {
		if b.groups[g] != nil {
			km = b.groups[g][s.name]
		}
		if km == nil {
			if !create {
				return nil
			}
			km, _ = b.slot(s.name, key)
		}
		s.km[g] = km
	}
	if v, ok := km[key]; ok {
		if m, ok := v.(map[string]any); ok {
			s.curKey, s.cur = key, m
			return m
		}
	}
	if !create {
		return nil
	}
	var m map[string]any
	if n := len(s.spare); n > 0 {
		m, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		m = make(map[string]any)
	}
	km[key] = m
	s.curKey, s.cur = key, m
	return m
}

// Put writes directly into the cached inner map, bypassing MemoryBackend.put
// — so delta tracking is hooked here explicitly.
func (s *memMap) Put(mapKey string, v any) {
	if s.b.delta != nil {
		s.b.delta.touch(s.name, s.b.currentKey)
	}
	s.inner(true)[mapKey] = v
}

func (s *memMap) Get(mapKey string) (any, bool) {
	m := s.inner(false)
	if m == nil {
		return nil, false
	}
	v, ok := m[mapKey]
	if ok && s.b.delta != nil && IsCell(v) {
		s.b.delta.touch(s.name, s.b.currentKey) // the caller may mutate it
	}
	return v, ok
}

func (s *memMap) Remove(mapKey string) {
	m := s.inner(false)
	if m == nil {
		return
	}
	delete(m, mapKey)
	if len(m) == 0 {
		// An empty inner map would keep the key in every later image.
		s.Clear()
		s.spare = append(s.spare, m)
		return
	}
	if s.b.delta != nil {
		s.b.delta.touch(s.name, s.b.currentKey)
	}
}

func (s *memMap) Keys() []string {
	m := s.inner(false)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *memMap) Clear() {
	s.b.del(s.name, s.b.currentKey)
	s.cur, s.curKey = nil, ""
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
		if b.groups[g] != nil {
			img.Groups[g] = b.groups[g]
		}
	}
	return EncodeImage(img)
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
		if g == nil {
			continue
		}
		for k, v := range g[name] {
			if !fn(k, v) {
				return
			}
		}
	}
}

// Dispose is a no-op for the memory backend.
func (b *MemoryBackend) Dispose() error { return nil }

var _ Backend = (*MemoryBackend)(nil)
