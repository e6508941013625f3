package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/metrics"
	"repro/internal/queryable"
	"repro/internal/serve"
)

const (
	servedStream = "events"
	servedTable  = "sums"
	connections  = 2
	getsPerSec   = 100
)

// The four continuous queries every connection subscribes: two raw feeds, a
// filtered feed of about one record in ten, and a windowed aggregate.
var subscriptions = []struct {
	id, query string
	want      func(*ring, int64) bool // nil for the aggregate
}{
	{"raw-a", "ISTREAM (SELECT k, v, i FROM events [NOW])", wantAll},
	{"raw-b", "ISTREAM (SELECT k, v, i FROM events [NOW])", wantAll},
	{"large", fmt.Sprintf("ISTREAM (SELECT k, v, i FROM events [NOW] WHERE v > %d)", largeValue), isLarge},
	{"sums", "ISTREAM (SELECT k, SUM(v) AS s FROM events [RANGE 1000 SLIDE 1000] GROUP BY k)", nil},
}

// subscriber is the receiving end of one subscription: a goroutine that
// drains its frames, checks record feeds by index and times each delta from
// its record's due time.
type subscriber struct {
	conn    int
	id      string
	sub     *serve.ClientSub
	check   *recordCheck // nil for the aggregate
	latency *sliced
	frames  int64
	eos     bool
	shed    int64
	err     string
	digest  [sha256.Size]byte // aggregate: hash of the delta stream
}

// serveEnv is the serving side of a serve workload's phase: the front door,
// its TCP clients and their subscriptions, and the point-read loop.
type serveEnv struct {
	p       *phase
	reg     *metrics.Registry
	svc     *queryable.Service
	srv     *serve.Server
	tap     core.Tap
	clients []*serve.Client
	subs    []*subscriber
	wg      sync.WaitGroup

	// pacer is the schedule latencies are timed against; it is set before
	// the job starts, so before any frame exists.
	pacer *pacer

	subscribeRTT *hist
	gets         *hist
	getErrs      int64
	reading      bool // the point-read loop is running
	stopGets     chan struct{}
	getsDone     chan struct{}
	from         time.Duration
}

func newServeEnv(p *phase) (*serveEnv, error) {
	s := &serveEnv{p: p, reg: metrics.NewRegistry(), svc: queryable.NewService(),
		subscribeRTT: newHist(), gets: newHist(),
		stopGets: make(chan struct{}), getsDone: make(chan struct{})}
	s.srv = serve.NewServer(serve.Options{Service: s.svc, Registry: s.reg})
	r := p.ring
	s.tap = s.srv.RegisterStream(servedStream, func(e core.Event) (cql.Row, bool) {
		idx, pl := eventIndex(r, e)
		if pl == nil {
			return nil, false
		}
		return cql.Row{"k": e.Key, "v": pl.v, "i": float64(idx)}, true
	})
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.from = p.clk.Now()
	for c := 0; c < connections; c++ {
		cl, err := serve.Dial(s.srv.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
		for _, q := range subscriptions {
			span := p.tr.begin("serve.subscribe", p.span)
			t0 := p.clk.Now()
			sub, err := cl.Subscribe(q.id, q.query, serve.SubscribeOptions{})
			if err != nil {
				s.close()
				return nil, fmt.Errorf("subscribe %s: %w", q.id, err)
			}
			s.subscribeRTT.observe(int64(p.clk.Now() - t0))
			p.tr.end(span)
			sb := &subscriber{conn: c, id: q.id, sub: sub, latency: newSliced()}
			if q.want != nil {
				sb.check = &recordCheck{ring: r, want: q.want}
			}
			s.subs = append(s.subs, sb)
		}
	}
	return s, nil
}

// start launches the receiving goroutines. It is called last in a phase's
// set-up, once everything they read (the pacer) is in place; no frame can
// exist before the job runs.
func (s *serveEnv) start() {
	for _, sb := range s.subs {
		s.wg.Add(1)
		go s.drain(sb)
	}
	s.reading = true
	go s.pointReads(s.clients[0])
}

// drain consumes one subscription until its terminal frame.
func (s *serveEnv) drain(sb *subscriber) {
	defer s.wg.Done()
	clk := s.p.clk
	span, first := 0, true
	h := sha256.New()
	for f := range sb.sub.Frames {
		sb.frames++
		if first {
			first = false
			s.p.tr.add("serve.first_frame", s.p.span, s.from, clk.Now())
			span = s.p.tr.begin("serve.stream."+sb.id, s.p.span)
		}
		switch f.Op {
		case "delta":
			if sb.check == nil {
				row, _ := json.Marshal(f.Row)
				fmt.Fprintf(h, "%s %d %s\n", f.Kind, f.Ts, row)
				continue
			}
			i, _ := f.Row["i"].(float64)
			k, _ := f.Row["k"].(string)
			v, _ := f.Row["v"].(float64)
			idx := int64(i)
			sb.check.observe(idx, k, v)
			if s.pacer != nil {
				if slice, ok := s.pacer.slice(idx); ok {
					sb.latency.observe(slice, int64(clk.Now()-s.pacer.due(idx)))
				}
			}
		case "eos":
			sb.eos, sb.shed = true, f.Shed
		case "error":
			sb.err = f.Code + ": " + f.Err
		}
	}
	s.p.tr.end(span)
	h.Sum(sb.digest[:0])
}

// outstanding is the closed loop of serve-fanout's saturation phase: at most
// this many records between admission at the source and the slowest
// subscription's pump, three quarters of the default 256-record subscription
// buffer. The hub therefore never sheds, and the admitted rate is the rate
// the whole serving path sustains. (With the loop closed over the job's
// channels only, the hub sheds for every subscription all the time and the
// admitted rate is decided by how the scheduler splits two cores between the
// job and eight saturated pumps: it spread 27% between runs.)
const outstanding = 192

// credit is the feed's credit function for the saturation phase.
func (s *serveEnv) credit(next int64) int64 {
	slowest := next
	for _, sub := range s.srv.Subscribers() {
		if sub.Delivered < slowest {
			slowest = sub.Delivered
		}
	}
	return outstanding - (next - slowest)
}

// pointReads issues Get requests at a fixed rate on one connection, beside
// the pushes that connection receives.
func (s *serveEnv) pointReads(cl *serve.Client) {
	defer close(s.getsDone)
	tick := time.NewTicker(time.Second / getsPerSec)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-s.stopGets:
			return
		case <-tick.C:
		}
		t0 := s.p.clk.Now()
		if _, _, err := cl.Get(servedTable, s.p.ring.keys[n%len(s.p.ring.keys)]); err != nil {
			s.getErrs++
			continue
		}
		s.gets.observe(int64(s.p.clk.Now() - t0))
	}
}

// serveResult is what the serving side of a phase measured.
type serveResult struct {
	verdict      verdict
	latency      *sliced // paced: record due to delta received, all record feeds
	delivered    int64   // records the hub handed to subscription pumps
	shed         int64   // records the hub dropped for slow subscriptions
	frames       int64
	identical    int64 // aggregate subscriptions byte-equal to the first
	subscribeRTT *hist
	gets         *hist
}

// finish waits for every subscription's end of stream (the job has drained,
// so each is owed a terminal frame), stops the point reads and checks what
// the subscribers received. Every expected delta of a record feed is an
// operation: neither phase gives the hub a reason to shed.
func (s *serveEnv) finish(admitted int64) (*serveResult, error) {
	s.stopReads()
	waited := make(chan struct{})
	go func() { s.wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("serve: subscriptions did not reach end of stream")
	}
	res := &serveResult{latency: newSliced(), subscribeRTT: s.subscribeRTT, gets: s.gets}
	var firstAgg *subscriber
	for _, sb := range s.subs {
		res.frames += sb.frames
		res.shed += sb.shed
		if !sb.eos || sb.err != "" {
			res.verdict.unaccounted++
			fmt.Printf("  subscription %d/%s ended without eos: %s\n", sb.conn, sb.id, sb.err)
		}
		if sb.check == nil {
			if firstAgg == nil {
				firstAgg = sb
			}
			if sb.digest == firstAgg.digest {
				res.identical++
			}
			continue
		}
		res.latency.merge(sb.latency)
		res.verdict.add(sb.check.finish(admitted))
	}
	res.verdict.failed = res.verdict.missing + res.verdict.duplicated + res.verdict.wrong +
		res.verdict.unaccounted + s.getErrs
	s.reg.Each(metrics.Visitor{Counter: func(name string, c *metrics.Counter) {
		if strings.HasSuffix(name, ".delivered") {
			res.delivered += c.Value()
		}
	}})
	return res, nil
}

func (s *serveEnv) stopReads() {
	if s.reading {
		s.reading = false
		close(s.stopGets)
		<-s.getsDone
	}
}

// close tears the front door down; safe after a failed set-up.
func (s *serveEnv) close() {
	s.stopReads()
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Close()
}
