// Package state implements managed keyed state for stream operators — the
// concept §3.1 of the paper traces from 1st-generation "summaries" and
// "synopses" to the explicit, fault-tolerant partitioned state of modern
// engines. It provides:
//
//   - the state primitives (ValueState, ListState, MapState, ReducingState)
//     scoped to the current key,
//   - key-group organisation (keys hash into a fixed number of key groups;
//     operator instances own contiguous group ranges), which is what makes
//     rescaling with state migration possible (E13),
//   - three backends: in-memory ("internally managed", Flink-style), an
//     LSM-tree-backed store (spilling beyond main memory), and a
//     changelog-backed store ("externally managed", Samza/Kafka-Streams
//     style),
//   - TTL-based state expiration, and
//   - state versioning with schema migration (§4.2 State Versioning).
package state

import (
	"encoding/gob"
	"hash/fnv"
)

// DefaultKeyGroups is the default number of key groups. Following Flink's
// design, the key space is pre-partitioned into a fixed number of groups that
// are assigned to operator instances in contiguous ranges; rescaling moves
// whole groups rather than splitting hash ranges.
const DefaultKeyGroups = 128

// KeyGroupFor maps a key to its key group in [0, numGroups).
func KeyGroupFor(key string, numGroups int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numGroups))
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

// ReducingState folds appended values into one using a reduce function.
type ReducingState interface {
	Add(v any)
	// Get returns the reduced value and whether any value was added.
	Get() (any, bool)
	Clear()
}

// Backend stores keyed state for one operator instance. Implementations are
// not safe for concurrent use: the engine serialises access per instance.
type Backend interface {
	// SetCurrentKey scopes subsequent state accesses to the given key.
	SetCurrentKey(key string)
	// CurrentKey returns the key set by SetCurrentKey.
	CurrentKey() string

	// Value, List, Map and Reducing return handles to named states scoped to
	// the current key. Handles may be retrieved once and reused across keys.
	Value(name string) ValueState
	List(name string) ListState
	Map(name string) MapState
	Reducing(name string, reduce func(a, b any) any) ReducingState

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
