package serve

import (
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// Item is one raw record queued for a subscription: the tap's extracted row,
// not yet run through the subscription's query. The executor runs on the
// consumer's goroutine so a slow or expensive query costs its own subscriber,
// never the job.
type Item = cql.Tuple

// delivery is one batch handed to a subscription's pump: drained records
// first, then (conservatively after them) the coalesced watermark, then
// terminal conditions. items is only valid until the next call to next.
type delivery struct {
	items  []Item
	wm     int64
	wmSet  bool
	shed   int64 // records shed so far
	eos    bool
	killed bool
	closed bool
}

// Hub fans a job's tapped streams out to N subscriptions: one producer (the
// pipeline, via core.Tap callbacks that never block) and per-subscription
// bounded queues whose overflow policy decides what a lagging consumer loses.
type Hub struct {
	mu      sync.Mutex
	streams map[string]bool
	subs    map[string]*Subscription
	// routes caches the per-stream subscriber list on the publish hot path;
	// entries are immutable slices, invalidated wholesale on any
	// subscribe/cancel so publishers never see a stale membership.
	routes        map[string][]*Subscription
	reg           *metrics.Registry
	subscribers   *metrics.Gauge
	defaultCap    int
	defaultPolicy load.OverflowPolicy
	closed        bool
}

// NewHub builds a hub publishing per-subscriber counters into reg (nil gets
// a private registry). defaultCap is the queue capacity subscriptions get
// when they do not ask for one (minimum 1; 0 selects 256).
func NewHub(reg *metrics.Registry, defaultCap int, defaultPolicy load.OverflowPolicy) *Hub {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if defaultCap <= 0 {
		defaultCap = 256
	}
	return &Hub{
		streams:       map[string]bool{},
		subs:          map[string]*Subscription{},
		routes:        map[string][]*Subscription{},
		reg:           reg,
		subscribers:   reg.Gauge("serve.subscribers"),
		defaultCap:    defaultCap,
		defaultPolicy: defaultPolicy,
	}
}

// RegisterStream names a pipeline stream and returns the core.Tap to attach
// at the point whose traffic the name should mean (s.TapInto(name, tap)).
// extract converts engine events to CQL rows; returning false skips the
// record. Re-registering a name returns a tap publishing to the same
// subscribers — this is how a rescaled job's new incarnation resumes
// publishing to subscriptions that rode through the reconfiguration.
func (h *Hub) RegisterStream(name string, extract func(core.Event) (cql.Row, bool)) core.Tap {
	h.mu.Lock()
	h.streams[name] = true
	h.mu.Unlock()
	return &streamTap{hub: h, name: name, extract: extract}
}

// Streams lists the registered stream names, sorted.
func (h *Hub) Streams() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.streams))
	for s := range h.streams {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Subscribe prepares query and registers a subscription named name (unique
// within the hub; the serve server prefixes the client's id with a
// per-connection tag). bufCap <= 0 selects the hub default.
func (h *Hub) Subscribe(name, query string, bufCap int, policy load.OverflowPolicy) (*Subscription, error) {
	exec, err := cql.Prepare(query)
	if err != nil {
		return nil, errf(CodeSyntax, "%v", err)
	}
	if bufCap <= 0 {
		bufCap = h.defaultCap
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errf(CodeShutdown, "serve: hub is closed")
	}
	for _, s := range exec.Streams() {
		if !h.streams[s] {
			return nil, errf(CodeUndefinedStream, "serve: query references unregistered stream %q", s)
		}
	}
	if _, dup := h.subs[name]; dup {
		return nil, errf(CodeDuplicate, "serve: subscription id %q already in use", name)
	}
	sub := &Subscription{
		name:      name,
		query:     query,
		hub:       h,
		exec:      exec,
		q:         load.NewBoundedBuffer[Item](bufCap, policy),
		wms:       map[string]int64{},
		streams:   map[string]bool{},
		delivered: h.reg.Counter("serve.sub." + name + ".delivered"),
		shedC:     h.reg.Counter("serve.sub." + name + ".shed"),
		depth:     h.reg.Gauge("serve.sub." + name + ".queue_depth"),
	}
	sub.cond = sync.NewCond(&sub.mu)
	for _, s := range exec.Streams() {
		sub.streams[s] = true
	}
	sub.eosLeft = len(sub.streams)
	h.subs[name] = sub
	h.routes = map[string][]*Subscription{}
	h.subscribers.Set(int64(len(h.subs)))
	return sub, nil
}

// Subscribers reports every live subscription's counters for /jobs.
func (h *Hub) Subscribers() []obsv.SubscriberInfo {
	h.mu.Lock()
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	out := make([]obsv.SubscriberInfo, 0, len(subs))
	for _, s := range subs {
		s.mu.Lock()
		out = append(out, obsv.SubscriberInfo{
			ID:         s.name,
			Query:      s.query,
			Policy:     s.q.Policy().String(),
			Delivered:  s.delivered.Value(),
			Shed:       s.q.Shed(),
			QueueDepth: s.q.Len(),
			QueueCap:   s.q.Cap(),
		})
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close cancels every subscription; later Subscribe calls fail with 57P01.
// Registered taps stay valid — their publishes become no-ops.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
}

func (h *Hub) remove(name string) {
	h.mu.Lock()
	if _, ok := h.subs[name]; ok {
		delete(h.subs, name)
		h.routes = map[string][]*Subscription{}
		h.subscribers.Set(int64(len(h.subs)))
	}
	h.mu.Unlock()
}

// snapshot returns the subscriptions consuming stream (cached; the returned
// slice is immutable).
func (h *Hub) snapshot(stream string) []*Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	if out, ok := h.routes[stream]; ok {
		return out
	}
	out := []*Subscription{}
	for _, s := range h.subs {
		if s.streams[stream] {
			out = append(out, s)
		}
	}
	h.routes[stream] = out
	return out
}

func (h *Hub) publishRecord(stream string, ts int64, row cql.Row) {
	for _, s := range h.snapshot(stream) {
		s.offer(Item{Stream: stream, Ts: ts, Row: row})
	}
}

func (h *Hub) publishWatermark(stream string, wm int64) {
	for _, s := range h.snapshot(stream) {
		s.advanceWatermark(stream, wm)
	}
}

func (h *Hub) publishEOS(stream string) {
	for _, s := range h.snapshot(stream) {
		s.streamEOS(stream)
	}
}

// streamTap adapts hub publication to the engine's core.Tap contract; every
// callback is non-blocking by construction (bounded queues, policy sheds).
type streamTap struct {
	hub     *Hub
	name    string
	extract func(core.Event) (cql.Row, bool)
}

func (t *streamTap) OnRecord(e core.Event) {
	if row, ok := t.extract(e); ok {
		t.hub.publishRecord(t.name, e.Timestamp, row)
	}
}

func (t *streamTap) OnWatermark(wm int64) { t.hub.publishWatermark(t.name, wm) }

func (t *streamTap) OnEOS() { t.hub.publishEOS(t.name) }

// Subscription is one consumer's bounded view of the hub: raw records queue
// under the overflow policy, watermarks coalesce (never shed — only the
// latest matters), and the pump drains via next().
type Subscription struct {
	name    string
	query   string
	hub     *Hub
	exec    *cql.Executor
	streams map[string]bool

	mu   sync.Mutex
	cond *sync.Cond
	q    *load.BoundedBuffer[Item]
	// batch is next's reusable delivery buffer.
	batch []Item
	// wms holds the latest watermark per input stream; the subscription's
	// event time is the min across all its streams (EOS'd streams stop
	// constraining it).
	wms     map[string]int64
	wmPend  int64
	wmDirty bool
	eosLeft int // input streams that have not yet hit EOS
	eos     bool
	killed  bool
	closed  bool
	onKill  func()

	delivered *metrics.Counter
	shedC     *metrics.Counter
	depth     *metrics.Gauge
}

// Name returns the hub-wide subscription id (the metrics label).
func (s *Subscription) Name() string { return s.name }

// Query returns the CQL text.
func (s *Subscription) Query() string { return s.query }

// Exec returns the subscription's prepared executor. It is NOT safe for
// concurrent use; only the pump goroutine may touch it.
func (s *Subscription) Exec() *cql.Executor { return s.exec }

// Shed returns how many records the overflow policy has dropped.
func (s *Subscription) Shed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.Shed()
}

// OnKill installs a callback fired once when the disconnect policy trips —
// the serve server closes the client's connection here so a pump blocked on
// a jammed socket unwinds.
func (s *Subscription) OnKill(fn func()) {
	s.mu.Lock()
	s.onKill = fn
	s.mu.Unlock()
}

// Cancel detaches the subscription from the hub; a pump blocked in next()
// returns with closed=true.
func (s *Subscription) Cancel() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.cond.Signal()
	s.mu.Unlock()
	if !already {
		s.hub.remove(s.name)
	}
}

func (s *Subscription) offer(it Item) {
	s.mu.Lock()
	if s.closed || s.killed {
		s.mu.Unlock()
		return
	}
	shed, kill := s.q.Push(it)
	if shed {
		s.shedC.Inc()
	}
	s.depth.Set(int64(s.q.Len()))
	var onKill func()
	if kill {
		s.killed = true
		onKill = s.onKill
	}
	s.cond.Signal()
	s.mu.Unlock()
	if onKill != nil {
		onKill()
	}
}

func (s *Subscription) advanceWatermark(stream string, wm int64) {
	s.mu.Lock()
	defer func() { s.cond.Signal(); s.mu.Unlock() }()
	if s.closed {
		return
	}
	if old, ok := s.wms[stream]; ok && wm <= old {
		return
	}
	s.wms[stream] = wm
	// The subscription's watermark is the min across ALL its input streams;
	// until every stream has reported there is no lower bound to announce.
	if len(s.wms) < len(s.streams) {
		return
	}
	min := int64(math.MaxInt64)
	for _, v := range s.wms {
		if v < min {
			min = v
		}
	}
	if min > s.wmPend || !s.wmDirty {
		s.wmPend = min
		s.wmDirty = true
	}
}

func (s *Subscription) streamEOS(stream string) {
	s.mu.Lock()
	if !s.eos && s.streams[stream] && s.wms[stream] != math.MaxInt64 {
		// A finished stream no longer constrains the watermark (the MaxInt64
		// marker also dedups repeated EOS from a re-registered tap).
		s.wms[stream] = math.MaxInt64
		s.eosLeft--
		if s.eosLeft <= 0 {
			s.eos = true
		}
	}
	s.cond.Signal()
	s.mu.Unlock()
}

// next blocks until the subscription has work and returns it: queued records,
// then the coalesced watermark (delivered after the records it postdates —
// conservative, never early), then eos/killed/closed terminal flags.
func (s *Subscription) next() delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		d := delivery{items: s.batch[:0], shed: s.q.Shed()}
		for {
			it, ok := s.q.Pop()
			if !ok {
				break
			}
			d.items = append(d.items, it)
		}
		s.batch = d.items
		if len(d.items) > 0 {
			s.delivered.Add(int64(len(d.items)))
			s.depth.Set(0)
		}
		if s.wmDirty {
			d.wm, d.wmSet = s.wmPend, true
			s.wmDirty = false
		}
		d.eos, d.killed, d.closed = s.eos, s.killed, s.closed
		if len(d.items) > 0 || d.wmSet || d.eos || d.killed || d.closed {
			return d
		}
		s.cond.Wait()
	}
}
