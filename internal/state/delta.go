package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// DeltaBackend is implemented by backends that can serialize only the state
// changed since a previous checkpoint — the delta-checkpoint contract. The
// coordinator picks the base (always the last *completed* checkpoint) so a
// delta's parent is guaranteed restorable; the backend merely has to know
// which (name, key) slots were touched since that base.
type DeltaBackend interface {
	// SnapshotDelta serializes the state changed since checkpoint base, as of
	// checkpoint id. ok=false means the backend cannot produce a delta from
	// that base (tracking off, base predates tracking, or base was pruned);
	// the caller must fall back to a full snapshot and call MarkFull.
	SnapshotDelta(base, id int64) (data []byte, ok bool, err error)
	// MarkFull records that checkpoint id was captured as a full snapshot, so
	// later deltas based on id serialize only changes after this point.
	MarkFull(id int64)
	// ApplyDelta replays a delta payload on top of current contents.
	ApplyDelta(data []byte) error
	// SetDeltaTracking enables or disables change tracking. Off (the default)
	// costs nothing on the write path.
	SetDeltaTracking(on bool)
}

// FileBackend is implemented by backends whose state lives in immutable
// files that a checkpoint can reference directly (RocksDB-style incremental
// checkpoints): instead of serializing values, the checkpoint links the
// backend's current file set.
type FileBackend interface {
	// SnapshotFiles makes the current state durable (flush + fsync) and
	// returns the immutable files composing it.
	SnapshotFiles() ([]string, error)
	// RestoreFromFiles replaces backend contents with the given files.
	RestoreFromFiles(paths []string) error
}

// dirtyKey identifies one mutated state slot.
type dirtyKey struct{ name, key string }

// maxDeltaEpochs bounds the tracker's closed-epoch list. Epochs are merged
// (oldest two coalesced) past this; merging only over-approximates a later
// delta, never loses a change.
const maxDeltaEpochs = 64

// deltaTracker records which state slots changed, bucketed into epochs
// closed at each checkpoint attempt. marks maps checkpoint id -> absolute
// epoch boundary: the delta from base to now is the union of every epoch at
// or after marks[base].
type deltaTracker struct {
	cur    map[dirtyKey]struct{}   // open epoch, mutations since last checkpoint attempt
	seq    []map[dirtyKey]struct{} // closed epochs; seq[0] is absolute position offset
	marks  map[int64]int           // checkpoint id -> absolute boundary into seq
	offset int                     // absolute position of seq[0]
}

func newDeltaTracker() *deltaTracker {
	return &deltaTracker{cur: make(map[dirtyKey]struct{}), marks: make(map[int64]int)}
}

func (d *deltaTracker) touch(name, key string) {
	d.cur[dirtyKey{name, key}] = struct{}{}
}

// closeEpoch moves the open epoch onto seq, coalescing the oldest epochs
// when the list exceeds its bound. Coalescing maps boundaries conservatively
// downward, so a base whose exact boundary was merged away over-captures.
func (d *deltaTracker) closeEpoch() {
	d.seq = append(d.seq, d.cur)
	d.cur = make(map[dirtyKey]struct{})
	if len(d.seq) > maxDeltaEpochs {
		for k := range d.seq[1] {
			d.seq[0][k] = struct{}{}
		}
		d.seq = append(d.seq[:1], d.seq[2:]...)
		d.offset++ // absolute positions <= offset now clamp to seq[0]
	}
}

// capture closes the open epoch and returns the union of changes since
// checkpoint base, recording id's boundary. ok=false when base is unknown.
// Because the coordinator only bases deltas on the latest completed
// checkpoint, and completions are monotone, everything before base's
// boundary can be pruned.
func (d *deltaTracker) capture(base, id int64) (map[dirtyKey]struct{}, bool) {
	abs, ok := d.marks[base]
	if !ok {
		return nil, false
	}
	d.closeEpoch()
	rel := abs - d.offset
	if rel < 0 {
		rel = 0 // boundary merged away by coalescing: over-capture
	}
	union := make(map[dirtyKey]struct{})
	for _, epoch := range d.seq[rel:] {
		for k := range epoch {
			union[k] = struct{}{}
		}
	}
	d.marks[id] = d.offset + len(d.seq)
	d.seq = append([]map[dirtyKey]struct{}(nil), d.seq[rel:]...)
	d.offset += rel
	for cp := range d.marks {
		if cp < base {
			delete(d.marks, cp)
		}
	}
	return union, true
}

// markFull closes the open epoch and records id's boundary without pruning:
// a full capture may still be aborted, and a later delta from an older base
// must not have lost the dirt recorded before it.
func (d *deltaTracker) markFull(id int64) {
	d.closeEpoch()
	d.marks[id] = d.offset + len(d.seq)
}

// EncodeDeltaOps serialises a delta payload (the same op format as the
// changelog: state = fold(ops)).
func EncodeDeltaOps(ops []ChangelogOp) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ops); err != nil {
		return nil, fmt.Errorf("state: encode delta: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeDeltaOps deserialises a delta payload.
func DecodeDeltaOps(data []byte) ([]ChangelogOp, error) {
	var ops []ChangelogOp
	if len(data) == 0 {
		return nil, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ops); err != nil {
		return nil, fmt.Errorf("state: decode delta: %w", err)
	}
	return ops, nil
}

// deltaOpsFor turns a dirty set into ops by reading current values through
// get: present -> Set, absent -> Delete. Sorted for deterministic payloads.
func deltaOpsFor(dirty map[dirtyKey]struct{}, get func(name, key string) (any, bool)) []ChangelogOp {
	keys := make([]dirtyKey, 0, len(dirty))
	for dk := range dirty {
		keys = append(keys, dk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].key < keys[j].key
	})
	ops := make([]ChangelogOp, 0, len(keys))
	for _, dk := range keys {
		if v, ok := get(dk.name, dk.key); ok {
			ops = append(ops, ChangelogOp{Name: dk.name, Key: dk.key, Value: v})
		} else {
			ops = append(ops, ChangelogOp{Name: dk.name, Key: dk.key, Delete: true})
		}
	}
	return ops
}

// --- MemoryBackend delta support ---

// SetDeltaTracking enables change tracking on the write path.
func (b *MemoryBackend) SetDeltaTracking(on bool) {
	if on && b.delta == nil {
		b.delta = newDeltaTracker()
	} else if !on {
		b.delta = nil
	}
}

// SnapshotDelta serialises only the slots changed since checkpoint base.
func (b *MemoryBackend) SnapshotDelta(base, id int64) ([]byte, bool, error) {
	if b.delta == nil {
		return nil, false, nil
	}
	dirty, ok := b.delta.capture(base, id)
	if !ok {
		return nil, false, nil
	}
	data, err := EncodeDeltaOps(deltaOpsFor(dirty, b.get))
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// MarkFull records a full-snapshot boundary for later deltas.
func (b *MemoryBackend) MarkFull(id int64) {
	if b.delta != nil {
		b.delta.markFull(id)
	}
}

// ApplyDelta replays a delta payload on top of current contents.
func (b *MemoryBackend) ApplyDelta(data []byte) error {
	ops, err := DecodeDeltaOps(data)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if op.Delete {
			b.del(op.Name, op.Key)
		} else {
			b.put(op.Name, op.Key, op.Value)
		}
	}
	b.invalidateHandles()
	return nil
}

var _ DeltaBackend = (*MemoryBackend)(nil)

// --- LSMBackend delta support ---

// SetDeltaTracking enables change tracking on the write path.
func (b *LSMBackend) SetDeltaTracking(on bool) {
	if on && b.delta == nil {
		b.delta = newDeltaTracker()
	} else if !on {
		b.delta = nil
	}
}

// SnapshotDelta serialises only the slots changed since checkpoint base.
func (b *LSMBackend) SnapshotDelta(base, id int64) ([]byte, bool, error) {
	if b.delta == nil {
		return nil, false, nil
	}
	if err := b.flush(); err != nil {
		return nil, false, err
	}
	dirty, ok := b.delta.capture(base, id)
	if !ok {
		return nil, false, nil
	}
	data, err := EncodeDeltaOps(deltaOpsFor(dirty, b.logical))
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// logical returns what the slot (name, key) holds as an Image or a delta op
// spells it: a plain value, a map[string]any for map state, a []any for list
// state.
func (b *LSMBackend) logical(name, key string) (any, bool) {
	defer b.SetCurrentKey(b.currentKey)
	b.SetCurrentKey(key)
	if v, ok := b.Value(name).Get(); ok {
		return v, true
	}
	m := b.Map(name)
	if keys := m.Keys(); len(keys) > 0 {
		out := make(map[string]any, len(keys))
		for _, k := range keys {
			out[k], _ = m.Get(k)
		}
		return out, true
	}
	if l := b.List(name).Get(); len(l) > 0 {
		return l, true
	}
	return nil, false
}

// MarkFull records a full-snapshot boundary for later deltas.
func (b *LSMBackend) MarkFull(id int64) {
	if b.delta != nil {
		b.delta.markFull(id)
	}
}

// ApplyDelta replays a delta payload on top of current contents. An op
// replaces its whole slot, whichever kind of state held it before.
func (b *LSMBackend) ApplyDelta(data []byte) error {
	ops, err := DecodeDeltaOps(data)
	if err != nil {
		return err
	}
	defer b.SetCurrentKey(b.currentKey)
	for _, op := range ops {
		b.SetCurrentKey(op.Key)
		b.Value(op.Name).Clear()
		b.Map(op.Name).Clear()
		b.List(op.Name).Clear()
		if op.Delete {
			continue
		}
		switch v := op.Value.(type) {
		case map[string]any:
			m := b.Map(op.Name)
			for sub, elem := range v {
				m.Put(sub, elem)
			}
		case []any:
			l := b.List(op.Name)
			for _, item := range v {
				l.Append(item)
			}
		default:
			b.Value(op.Name).Set(v)
		}
	}
	return nil
}

var _ DeltaBackend = (*LSMBackend)(nil)

// SnapshotFiles flushes the cache and the memtable and returns the immutable
// SSTables composing current state. Everything returned is fsynced (table
// writes and the directory entry), so a checkpoint may reference these files
// by name.
func (b *LSMBackend) SnapshotFiles() ([]string, error) {
	if err := b.flush(); err != nil {
		return nil, err
	}
	if err := b.tree.Flush(); err != nil {
		return nil, err
	}
	return b.tree.Manifest(), nil
}

// RestoreFromFiles replaces backend contents with the given SSTable files.
func (b *LSMBackend) RestoreFromFiles(paths []string) error {
	b.resetCache()
	return b.tree.ReplaceWithFiles(paths)
}

var _ FileBackend = (*LSMBackend)(nil)
