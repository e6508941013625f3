// Package queryable implements queryable state (§4.2: "internal state,
// currently a black box to the user, is becoming the main point of interest
// for many interactive and reactive data applications"): pipelines publish
// snapshots of keyed state into a Service, and external clients read them
// with snapshot isolation — queries never touch the operator's live state,
// mirroring the isolation challenge the paper calls out (and Flink's
// point-query design it cites). Over TCP, serve.Server answers `get` and
// `keys` from a Service.
package queryable

import (
	"sort"
	"sync"

	"repro/internal/core"
)

// Service holds published state snapshots: table -> key -> value. Publishing
// a table replaces it atomically, so a reader never observes a half-updated
// snapshot.
type Service struct {
	mu     sync.RWMutex
	tables map[string]map[string]any
}

// NewService returns an empty service.
func NewService() *Service {
	return &Service{tables: make(map[string]map[string]any)}
}

// PublishSnapshot atomically replaces a table's contents.
func (s *Service) PublishSnapshot(table string, snap map[string]any) {
	copied := make(map[string]any, len(snap))
	for k, v := range snap {
		copied[k] = v
	}
	s.mu.Lock()
	s.tables[table] = copied
	s.mu.Unlock()
}

// Get reads one key from a table.
func (s *Service) Get(table, key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, false
	}
	v, ok := t[key]
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

// Keys lists a table's keys, sorted.
func (s *Service) Keys(table string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.tables[table]
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PublishOperator wraps a keyed stream so that the named value state is
// published to the service on every watermark advance — the pipeline's state
// becomes externally visible at consistent (watermark-aligned) points.
func PublishOperator(s *core.Stream, name string, svc *Service, table, stateName string,
	update func(e core.Event, ctx core.Context)) *core.Stream {
	fac := func() core.Operator {
		return &publishOp{svc: svc, table: table, stateName: stateName, update: update}
	}
	return s.Process(name, fac)
}

type publishOp struct {
	core.BaseOperator
	svc       *Service
	table     string
	stateName string
	update    func(e core.Event, ctx core.Context)
}

func (o *publishOp) ProcessElement(e core.Event, ctx core.Context) error {
	o.update(e, ctx)
	return nil
}

func (o *publishOp) OnWatermark(_ int64, ctx core.Context) error {
	snap := map[string]any{}
	ctx.State().ForEachKey(o.stateName, func(key string, v any) bool {
		snap[key] = v
		return true
	})
	o.svc.PublishSnapshot(o.table, snap)
	return nil
}

// Close publishes the final snapshot.
func (o *publishOp) Close(ctx core.Context) error { return o.OnWatermark(0, ctx) }
