// Package queryable implements queryable state (§4.2: "internal state,
// currently a black box to the user, is becoming the main point of interest
// for many interactive and reactive data applications"): a pipeline exposes
// one of its keyed value states as a named table, and external clients read
// it by key. Over TCP, serve.Server answers `get` and `keys` from a Service.
//
// A table is one shard per parallel instance of the publishing operator.
// The instance that owns a key's key group is the only writer of that key's
// shard, and it writes at batch boundaries: a read sees its key as the owning
// instance left it after some whole batch, never part of one. Reads are
// read-committed with respect to records — a record's update is visible as
// soon as its batch has been processed, with no watermark needed — and are
// not checkpoint-consistent: a value read now may be rolled back if the job
// fails before its next checkpoint. During a restart or rescale, a key reads
// as not found from the moment the new incarnation's first instance opens
// until the instance that owns it has opened. Shards outlive their job, so a
// table keeps answering after the job has ended.
package queryable

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/state"
)

// Service is the registry of queryable tables: table -> shards.
type Service struct {
	mu     sync.RWMutex
	tables map[string]*table
}

// table is one published table: a shard per publishing instance and the
// key-group map that routes a key to its shard.
type table struct {
	// pub is the publication whose instances write the shards: the first
	// instance of another publication (a new incarnation of the job) to open
	// replaces the table.
	pub       *publication
	numGroups int
	owner     []int    // key group -> index of the instance that owns it
	shards    []*shard // nil until its instance has opened
}

// shard is one instance's part of a table. Only that instance writes it.
type shard struct {
	mu sync.RWMutex
	m  map[string]any
}

// entry is one record's effect on a shard: the value state after the
// record's update, or its absence.
type entry struct {
	key     string
	val     any
	present bool
}

// apply writes a batch's entries under one lock, in order.
func (sh *shard) apply(entries []entry) {
	sh.mu.Lock()
	for _, e := range entries {
		if e.present {
			sh.m[e.key] = e.val
		} else {
			delete(sh.m, e.key)
		}
	}
	sh.mu.Unlock()
}

// NewService returns an empty service.
func NewService() *Service {
	return &Service{tables: make(map[string]*table)}
}

// attach installs sh as shard index of parallelism in pub's table, replacing
// the table when another publication wrote it or it was built for another
// parallelism or key-group count.
func (s *Service) attach(pub *publication, numGroups, parallelism, index int, sh *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tables[pub.table]
	if t == nil || t.pub != pub || t.numGroups != numGroups || len(t.shards) != parallelism {
		t = &table{pub: pub, numGroups: numGroups, owner: make([]int, numGroups),
			shards: make([]*shard, parallelism)}
		for i := 0; i < parallelism; i++ {
			start, end := state.GroupRange(numGroups, parallelism, i)
			for g := start; g < end; g++ {
				t.owner[g] = i
			}
		}
		s.tables[pub.table] = t
	}
	t.shards[index] = sh
}

// Get reads one key from a table, from the shard that owns its key group.
func (s *Service) Get(table, key string) (any, bool) {
	s.mu.RLock()
	t := s.tables[table]
	var sh *shard
	if t != nil {
		sh = t.shards[t.owner[state.KeyGroupFor(key, t.numGroups)]]
	}
	s.mu.RUnlock()
	if sh == nil {
		return nil, false
	}
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// Tables lists the published table names, sorted.
func (s *Service) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for t := range s.tables {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// Keys lists a table's keys over all its shards, sorted.
func (s *Service) Keys(table string) []string {
	s.mu.RLock()
	var shards []*shard
	if t := s.tables[table]; t != nil {
		shards = append(shards, t.shards...)
	}
	s.mu.RUnlock()
	var keys []string
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		sh.mu.RLock()
		for k := range sh.m {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	if keys == nil {
		keys = []string{}
	}
	sort.Strings(keys)
	return keys
}

// PublishOperator exposes the named value state of a keyed stream as a
// queryable table: for each record it runs update, then publishes the
// record's key with the state's value (or its absence) to the instance's
// shard. A batch's updates become visible together once the batch has been
// processed. The stream must be keyed (KeyBy), so that each key's records
// reach the instance that owns its key group — the shard a read goes to.
func PublishOperator(s *core.Stream, name string, svc *Service, table, stateName string,
	update func(e core.Event, ctx core.Context)) *core.Stream {
	pub := &publication{svc: svc, table: table, stateName: stateName, update: update}
	return s.Process(name, func() core.Operator { return &publishOp{pub: pub} })
}

// publication is what one PublishOperator call declares, shared by the
// instances of every job built from that graph.
type publication struct {
	svc       *Service
	table     string
	stateName string
	update    func(e core.Event, ctx core.Context)
}

type publishOp struct {
	core.BaseOperator
	pub     *publication
	shard   *shard
	pending []entry
}

// Open fills the instance's shard from its (possibly restored) state and
// attaches it to the table.
func (o *publishOp) Open(ctx core.Context) error {
	st := ctx.State()
	sh := &shard{m: map[string]any{}}
	st.ForEachKey(o.pub.stateName, func(key string, v any) bool {
		sh.m[key] = v
		return true
	})
	o.shard = sh
	o.pub.svc.attach(o.pub, st.NumKeyGroups(), ctx.Parallelism(), ctx.InstanceIndex(), sh)
	return nil
}

// ProcessElement implements core.Operator.
func (o *publishOp) ProcessElement(e core.Event, ctx core.Context) error {
	o.shard.apply([]entry{o.step(e, ctx)})
	return nil
}

// ProcessBatch implements core.BatchOperator: update runs for every record
// outside the shard's lock, then the batch's entries are applied under it.
func (o *publishOp) ProcessBatch(batch []core.Event, ctx core.BatchContext) error {
	for i := range batch {
		ctx.SetKey(batch[i].Key)
		o.pending = append(o.pending, o.step(batch[i], ctx))
	}
	o.shard.apply(o.pending)
	clear(o.pending)
	o.pending = o.pending[:0]
	return nil
}

// step runs update for e and reads back the key's value state.
func (o *publishOp) step(e core.Event, ctx core.Context) entry {
	o.pub.update(e, ctx)
	v, ok := ctx.State().Value(o.pub.stateName).Get()
	return entry{key: e.Key, val: v, present: ok}
}
