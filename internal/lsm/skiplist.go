// Package lsm implements a log-structured merge tree: a write-ahead log, an
// in-memory skiplist memtable, immutable sorted-string tables (SSTables) with
// bloom filters and sparse indexes, and size-tiered compaction. It is the
// disk-backed state backend of §3.1 ("file systems, log-structured merge
// trees and related data structures") and the substrate for incremental
// checkpoints (E6).
package lsm

import (
	"bytes"
	"math/rand"
)

const maxHeight = 12

// skiplist is a single-writer, multi-reader-unsafe sorted map used as the
// memtable. Concurrency control lives in Tree, which guards the active
// memtable with a mutex.
type skiplist struct {
	head   *slNode
	height int
	rng    *rand.Rand
	size   int // approximate bytes
	count  int
}

type slNode struct {
	key       []byte
	value     []byte
	tombstone bool
	next      [maxHeight]*slNode
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:   &slNode{},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// descend returns the first node with key >= key (the first node of all when
// key is nil), or nil when there is none. When update is non-nil it receives,
// per level, the last node before that position — what an insert or unlink
// there has to patch.
func (s *skiplist) descend(key []byte, update *[maxHeight]*slNode) *slNode {
	x := s.head
	for i := s.height - 1; i >= 0; i-- {
		for x.next[i] != nil && bytes.Compare(x.next[i].key, key) < 0 {
			x = x.next[i]
		}
		if update != nil {
			update[i] = x
		}
	}
	return x.next[0]
}

// put inserts or overwrites key. A tombstone records a deletion.
func (s *skiplist) put(key, value []byte, tombstone bool) {
	var update [maxHeight]*slNode
	if n := s.descend(key, &update); n != nil && bytes.Equal(n.key, key) {
		s.size += len(value) - len(n.value)
		n.value = value
		n.tombstone = tombstone
		return
	}
	h := s.randomHeight()
	if h > s.height {
		for i := s.height; i < h; i++ {
			update[i] = s.head
		}
		s.height = h
	}
	n := &slNode{key: key, value: value, tombstone: tombstone}
	for i := 0; i < h; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	s.size += len(key) + len(value) + 16
	s.count++
}

// remove unlinks key's node, if there is one.
func (s *skiplist) remove(key []byte) {
	var update [maxHeight]*slNode
	n := s.descend(key, &update)
	if n == nil || !bytes.Equal(n.key, key) {
		return
	}
	for i := 0; i < s.height && update[i].next[i] == n; i++ {
		update[i].next[i] = n.next[i]
	}
	s.size -= len(n.key) + len(n.value) + 16
	s.count--
}

// get returns the value for key; found reports presence (including
// tombstones, which return found=true, deleted=true).
func (s *skiplist) get(key []byte) (value []byte, deleted, found bool) {
	if n := s.descend(key, nil); n != nil && bytes.Equal(n.key, key) {
		return n.value, n.tombstone, true
	}
	return nil, false, false
}

// memIter streams the memtable's entries in key order from a start position.
type memIter struct{ n *slNode }

func (it *memIter) next() (entry, bool, error) {
	n := it.n
	if n == nil {
		return entry{}, false, nil
	}
	it.n = n.next[0]
	return entry{key: n.key, value: n.value, tombstone: n.tombstone}, true, nil
}

// entries returns all entries in key order.
func (s *skiplist) entries() []entry {
	out := make([]entry, 0, s.count)
	for n := s.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, entry{key: n.key, value: n.value, tombstone: n.tombstone})
	}
	return out
}

type entry struct {
	key       []byte
	value     []byte
	tombstone bool
}
