// Package state implements managed keyed state for stream operators — the
// concept §3.1 of the paper traces from 1st-generation "summaries" and
// "synopses" to the explicit, fault-tolerant partitioned state of modern
// engines. It provides:
//
//   - the state primitives (ValueState, ListState, MapState) scoped to the
//     current key,
//   - key-group organisation (keys hash into a fixed number of key groups;
//     operator instances own contiguous group ranges), which is what makes
//     rescaling with state migration possible (E13),
//   - three backends: in-memory ("internally managed", Flink-style), an
//     LSM-tree-backed store (spilling beyond main memory), and a
//     changelog-backed store ("externally managed", Samza/Kafka-Streams
//     style).
package state

import "encoding/gob"

// DefaultKeyGroups is the default number of key groups. Following Flink's
// design, the key space is pre-partitioned into a fixed number of groups that
// are assigned to operator instances in contiguous ranges; rescaling moves
// whole groups rather than splitting hash ranges.
const DefaultKeyGroups = 128

// KeyGroupFor maps a key to its key group in [0, numGroups): the 32-bit
// FNV-1a hash of the key, computed inline (no hash.Hash32, no []byte copy),
// modulo numGroups.
func KeyGroupFor(key string, numGroups int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(numGroups))
}

// GroupRange returns the half-open key-group range [start, end) owned by
// operator instance `index` out of `parallelism`, over numGroups groups.
func GroupRange(numGroups, parallelism, index int) (start, end int) {
	if parallelism <= 0 {
		return 0, 0
	}
	start = index * numGroups / parallelism
	end = (index + 1) * numGroups / parallelism
	return start, end
}

// ValueState is single-value state scoped to the current key.
type ValueState interface {
	// Get returns the value and whether one is set.
	Get() (any, bool)
	// Set stores the value.
	Set(v any)
	// Clear removes the value.
	Clear()
}

// ListState is append-only list state scoped to the current key.
type ListState interface {
	Append(v any)
	// Get returns the elements in append order. The returned slice must not
	// be mutated.
	Get() []any
	Clear()
}

// MapState is a per-key map of user sub-keys to values.
//
// A value may be a cell: a *float64 or *int64 its owner updates in place
// instead of Putting a new value per update. A Get that returns a cell counts
// as a write of it — it marks the entry for the next delta checkpoint and for
// the LSM backend's write-back cache — so a cell may be mutated after a Get
// without a Put, until the next call on the backend. Snapshots, exports and
// delta ops hold a cell's scalar, never the pointer, and restore it as a plain
// float64 or int64: the owner re-wraps it on first touch and Puts the new cell.
type MapState interface {
	Put(mapKey string, v any)
	Get(mapKey string) (any, bool)
	Remove(mapKey string)
	// Keys returns the sub-keys in unspecified order. The returned slice is
	// a point-in-time snapshot, never a live view: mutating the map (Put,
	// Remove, Clear) while ranging over it must not change the slice, skip
	// entries, or revive removed ones. Callers rely on this — the window
	// operator removes fired windows and session merges remove absorbed
	// windows while iterating Keys().
	Keys() []string
	Clear()
}

// Backend stores keyed state for one operator instance. Implementations are
// not safe for concurrent use: the engine serialises access per instance.
type Backend interface {
	// SetCurrentKey scopes subsequent state accesses to the given key.
	SetCurrentKey(key string)
	// CurrentKey returns the key set by SetCurrentKey.
	CurrentKey() string

	// Value, List and Map return handles to named states scoped to
	// the current key. Handles may be retrieved once and reused across keys.
	Value(name string) ValueState
	List(name string) ListState
	Map(name string) MapState

	// Snapshot serialises the entire backend contents.
	Snapshot() ([]byte, error)
	// Restore replaces the backend contents from a snapshot.
	Restore(data []byte) error

	// ExportGroups serialises only the given key groups (state migration).
	ExportGroups(groups []int) ([]byte, error)
	// ImportGroups merges previously exported key groups into this backend.
	ImportGroups(data []byte) error

	// NumKeyGroups returns the key-group fan-out the backend was built with.
	NumKeyGroups() int

	// ForEachKey calls fn for every (key, value) pair under the named value
	// state. Iteration order is unspecified; fn returning false stops early.
	ForEachKey(name string, fn func(key string, value any) bool)

	// Dispose releases resources (files, logs).
	Dispose() error
}

// scalarOf returns the scalar a cell points at, or v itself when v is not a
// cell.
func scalarOf(v any) any {
	switch c := v.(type) {
	case *float64:
		if c != nil {
			return *c
		}
	case *int64:
		if c != nil {
			return *c
		}
	}
	return v
}

// IsCell reports whether v is a cell (see MapState), without boxing its
// scalar.
func IsCell(v any) bool {
	switch c := v.(type) {
	case *float64:
		return c != nil
	case *int64:
		return c != nil
	}
	return false
}

// RegisterType makes a user value type encodable in snapshots. It must be
// called (typically from init) for every concrete type stored in state.
// Builtin scalar types, strings, and []any / map[string]any are
// pre-registered.
func RegisterType(v any) { gob.Register(v) }

func init() {
	gob.Register([]any{})
	gob.Register(map[string]any{})
	gob.Register(map[string]int64{})
	gob.Register([]string{})
	gob.Register([]float64{})
	gob.Register([]int64{})
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
}
