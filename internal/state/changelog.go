package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// ChangelogOp is one state mutation in a changelog.
type ChangelogOp struct {
	Name   string
	Key    string
	Value  any
	Delete bool
}

// Changelog is a replayable, append-only log of state mutations — the
// "externally managed state" architecture of §3.1 (Millwheel's Bigtable
// writes, Samza's and Kafka Streams' changelog topics). In production this
// log lives in a durable broker; here it is an in-process equivalent with
// the same contract: state can be reconstructed by replaying the log, and
// the log can be compacted to its latest-value-per-key form.
type Changelog struct {
	mu  sync.Mutex
	ops []ChangelogOp
	// start is the absolute offset of ops[0]: truncation drops prefix records
	// subsumed by a completed checkpoint without disturbing absolute
	// positions handed out by AbsLen.
	start int64
}

// NewChangelog returns an empty log.
func NewChangelog() *Changelog { return &Changelog{} }

// Append adds a mutation to the log.
func (c *Changelog) Append(op ChangelogOp) {
	c.mu.Lock()
	c.ops = append(c.ops, op)
	c.mu.Unlock()
}

// Len returns the number of retained log records.
func (c *Changelog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ops)
}

// AbsLen returns the absolute count of records ever appended, including
// truncated ones. Checkpoints record this position; a completed checkpoint
// subsumes every record before the position it captured.
func (c *Changelog) AbsLen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start + int64(len(c.ops))
}

// TruncateTo drops records below absolute position abs — those whose effects
// are already captured by a completed checkpoint. Without truncation the log
// grows without bound between explicit folds.
func (c *Changelog) TruncateTo(abs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	drop := abs - c.start
	if drop <= 0 {
		return
	}
	if drop > int64(len(c.ops)) {
		drop = int64(len(c.ops))
	}
	c.ops = append([]ChangelogOp(nil), c.ops[drop:]...)
	c.start += drop
}

// ReplayInto applies every record to the given backend.
func (c *Changelog) ReplayInto(b Backend) {
	c.mu.Lock()
	ops := append([]ChangelogOp(nil), c.ops...)
	c.mu.Unlock()
	for _, op := range ops {
		b.SetCurrentKey(op.Key)
		if op.Delete {
			b.Value(op.Name).Clear()
		} else {
			b.Value(op.Name).Set(op.Value)
		}
	}
}

// Compact rewrites the log keeping only the latest record per (name, key) —
// the semantics of a log-compacted Kafka topic.
func (c *Changelog) Compact() {
	c.mu.Lock()
	defer c.mu.Unlock()
	type nk struct{ name, key string }
	latest := make(map[nk]int, len(c.ops))
	for i, op := range c.ops {
		latest[nk{op.Name, op.Key}] = i
	}
	compacted := make([]ChangelogOp, 0, len(latest))
	for i, op := range c.ops {
		if latest[nk{op.Name, op.Key}] == i && !op.Delete {
			compacted = append(compacted, op)
		}
	}
	c.ops = compacted
}

// Encode serialises the log.
func (c *Changelog) Encode() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.ops); err != nil {
		return nil, fmt.Errorf("state: encode changelog: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeChangelog deserialises a log.
func DecodeChangelog(data []byte) (*Changelog, error) {
	var ops []ChangelogOp
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ops); err != nil {
		return nil, fmt.Errorf("state: decode changelog: %w", err)
	}
	return &Changelog{ops: ops}, nil
}

// ChangelogBackend wraps a MemoryBackend, mirroring every value-state
// mutation into a changelog. Recovery replays the changelog instead of
// restoring a snapshot, so the engine never ships state images — only the
// log handle — matching the externally-managed design point.
//
// Only ValueState writes are logged; List/Map/Reducing states delegate to
// the inner backend and are captured by Snapshot like the memory backend
// (real changelog systems serialise those as value blobs too; callers who
// need log-only recovery should model state as values).
type ChangelogBackend struct {
	*MemoryBackend
	log *Changelog
	// logMarks maps checkpoint id -> the log's absolute length when that
	// checkpoint was captured. When a later delta confirms a checkpoint
	// completed (the coordinator only bases deltas on completed checkpoints),
	// records below its mark are truncated — they are subsumed.
	logMarks map[int64]int64
}

// NewChangelogBackend returns a backend writing through to log.
func NewChangelogBackend(numGroups int, log *Changelog) *ChangelogBackend {
	return &ChangelogBackend{
		MemoryBackend: NewMemoryBackend(numGroups),
		log:           log,
		logMarks:      make(map[int64]int64),
	}
}

// Log returns the underlying changelog.
func (b *ChangelogBackend) Log() *Changelog { return b.log }

// Value returns a write-through value state handle.
func (b *ChangelogBackend) Value(name string) ValueState {
	return &clValue{inner: b.MemoryBackend.Value(name), b: b, name: name}
}

type clValue struct {
	inner ValueState
	b     *ChangelogBackend
	name  string
}

func (s *clValue) Get() (any, bool) { return s.inner.Get() }

func (s *clValue) Set(v any) {
	s.inner.Set(v)
	// A cell is logged as its scalar: mutating it later must not rewrite an
	// op already in the log.
	s.b.log.Append(ChangelogOp{Name: s.name, Key: s.b.CurrentKey(), Value: scalarOf(v)})
}

func (s *clValue) Clear() {
	s.inner.Clear()
	s.b.log.Append(ChangelogOp{Name: s.name, Key: s.b.CurrentKey(), Delete: true})
}

// SnapshotDelta captures a delta via the embedded memory backend and, since
// base is known completed, truncates changelog records subsumed by it.
func (b *ChangelogBackend) SnapshotDelta(base, id int64) ([]byte, bool, error) {
	pos := b.log.AbsLen()
	data, ok, err := b.MemoryBackend.SnapshotDelta(base, id)
	if !ok || err != nil {
		return data, ok, err
	}
	b.logMarks[id] = pos
	if mark, recorded := b.logMarks[base]; recorded {
		b.log.TruncateTo(mark)
		for cp := range b.logMarks {
			if cp < base {
				delete(b.logMarks, cp)
			}
		}
	}
	return data, true, nil
}

// MarkFull records the full-snapshot boundary and the log position captured
// with it.
func (b *ChangelogBackend) MarkFull(id int64) {
	b.MemoryBackend.MarkFull(id)
	if b.MemoryBackend.delta != nil {
		b.logMarks[id] = b.log.AbsLen()
	}
}

// RecoverFromLog rebuilds a fresh backend from the changelog alone.
func RecoverFromLog(numGroups int, log *Changelog) *ChangelogBackend {
	b := NewChangelogBackend(numGroups, NewChangelog())
	log.ReplayInto(b.MemoryBackend)
	b.log = log
	return b
}

var _ Backend = (*ChangelogBackend)(nil)
