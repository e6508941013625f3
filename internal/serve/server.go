package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/queryable"
)

// Options configures a Server.
type Options struct {
	// Service answers point queries ("get"/"keys"/"tables"); nil rejects
	// them with 0A000.
	Service *queryable.Service
	// Registry receives per-subscriber counters (serve.sub.<id>.delivered,
	// .shed, .queue_depth) and the serve.subscribers gauge. Point it at the
	// job's registry to surface subscribers on /metrics; nil keeps them
	// private.
	Registry *metrics.Registry
	// DefaultBuffer is the per-subscription queue capacity when the client
	// does not choose one (0 selects 256).
	DefaultBuffer int
	// DefaultPolicy is the overflow policy for subscriptions that do not
	// choose one (zero value: drop-oldest).
	DefaultPolicy load.OverflowPolicy
}

// Server is the stream SQL front door: one TCP listener multiplexing
// continuous CQL subscriptions over a running job's tapped streams and point
// queries against queryable state, per connection. See package docs for the
// wire protocol.
type Server struct {
	opts Options
	hub  *Hub

	ln      net.Listener
	wg      sync.WaitGroup
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	connSeq atomic.Int64
}

// NewServer builds a server; attach streams with RegisterStream, then call
// Listen.
func NewServer(opts Options) *Server {
	return &Server{
		opts:  opts,
		hub:   NewHub(opts.Registry, opts.DefaultBuffer, opts.DefaultPolicy),
		conns: map[net.Conn]struct{}{},
	}
}

// RegisterStream names a stream clients may query and returns the core.Tap
// to attach with (*core.Stream).TapInto at the point the name should mean.
func (s *Server) RegisterStream(name string, extract func(core.Event) (cql.Row, bool)) core.Tap {
	return s.hub.RegisterStream(name, extract)
}

// Hub exposes the fan-out hub (for in-process subscriptions and /jobs
// integration via Hub.Subscribers).
func (s *Server) Hub() *Hub { return s.hub }

// Subscribers reports live subscription counters for obsv.JobInfo.
func (s *Server) Subscribers() []obsv.SubscriberInfo { return s.hub.Subscribers() }

// Listen binds addr ("127.0.0.1:0" picks a free port) and starts accepting.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: server is closed")
	}
	s.ln = ln
	s.wg.Add(1)
	s.connMu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close drains the front door: stops accepting, sends a best-effort 57P01
// error frame on every connection, cancels all subscriptions and waits for
// the handlers to exit. The job and its taps keep running.
func (s *Server) Close() error {
	s.connMu.Lock()
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		// Best effort; the write races the client and may fail — the close
		// right after is what guarantees the handler unwinds.
		writeFrame(c, &Frame{Op: "error", Code: CodeShutdown, Err: "server shutting down"})
		c.Close()
	}
	s.hub.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		// Add inside the critical section that checked closed, so it is
		// ordered against Close's closed=true store (same pattern as
		// queryable.Server).
		s.wg.Add(1)
		s.connMu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// connState is one client connection: a reader goroutine (the handler), one
// pump goroutine per subscription, and a mutex-serialised writer they share.
type connState struct {
	srv  *Server
	conn net.Conn
	id   int64

	writeMu sync.Mutex

	subMu sync.Mutex
	subs  map[string]*Subscription // client-chosen id -> sub
	pumps sync.WaitGroup
}

// write sends whole frames in one call; concurrent-safe. A pump's delivery is
// one write, so the per-frame syscall cost amortises exactly when throughput
// matters.
func (c *connState) write(frames []byte) error {
	if len(frames) == 0 {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.conn.Write(frames)
	return err
}

// send writes one frame.
func (c *connState) send(f *Frame) error {
	b, err := appendFrame(nil, f)
	return c.write(orErrorFrame(b, err, f.Seq, f.ID))
}

// orErrorFrame gives back b, the result of appending a frame. If that append
// failed, an error frame for seq and id follows in the frame's place: a
// payload that cannot be marshalled must not tear the stream (mirroring the
// queryable encode-failure fix).
func orErrorFrame(b []byte, err error, seq uint64, id string) []byte {
	if err == nil {
		return b
	}
	b, _ = appendFrame(b, &Frame{Seq: seq, Op: "error", ID: id, Code: CodeInvalidParam,
		Err: fmt.Sprintf("response not serialisable: %v", err)})
	return b
}

func (s *Server) handle(conn net.Conn) {
	c := &connState{
		srv:  s,
		conn: conn,
		id:   s.connSeq.Add(1),
		subs: map[string]*Subscription{},
	}
	defer func() {
		// Cancel this connection's subscriptions so their pumps unwind, then
		// wait for them before releasing the conn.
		c.subMu.Lock()
		subs := make([]*Subscription, 0, len(c.subs))
		for _, sub := range c.subs {
			subs = append(subs, sub)
		}
		c.subMu.Unlock()
		for _, sub := range subs {
			sub.Cancel()
		}
		conn.Close()
		c.pumps.Wait()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()
	r := bufio.NewReader(conn)
	var body []byte
	for {
		var req Request
		var err error
		if body, err = readFrameBuf(r, body, &req); err != nil {
			// Distinguish a clean disconnect from garbage: decode errors get
			// a protocol-violation frame before the connection drops.
			if isDecodeError(err) {
				c.send(&Frame{Op: "error", Code: CodeProtocol, Err: err.Error()})
			}
			return
		}
		if req.Seq == 0 {
			c.send(&Frame{Op: "error", Code: CodeProtocol, Err: "request seq must be non-zero"})
			return
		}
		c.dispatch(&req)
	}
}

func isDecodeError(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	return !errors.As(err, &ne)
}

func (c *connState) fail(req *Request, err error) {
	f := &Frame{Seq: req.Seq, Op: "error", ID: req.ID}
	if se, ok := err.(*Error); ok {
		f.Code, f.Err = se.Code, se.Msg
	} else {
		f.Code, f.Err = CodeInvalidParam, err.Error()
	}
	c.send(f)
}

func (c *connState) dispatch(req *Request) {
	switch req.Op {
	case "subscribe":
		c.subscribe(req)
	case "unsubscribe":
		c.unsubscribe(req)
	case "get":
		svc := c.srv.opts.Service
		if svc == nil {
			c.fail(req, errf(CodeUnknownOp, "no queryable service attached"))
			return
		}
		v, found := svc.Get(req.Table, req.Key)
		c.send(&Frame{Seq: req.Seq, Op: "get", Found: found, Value: v})
	case "keys":
		svc := c.srv.opts.Service
		if svc == nil {
			c.fail(req, errf(CodeUnknownOp, "no queryable service attached"))
			return
		}
		c.send(&Frame{Seq: req.Seq, Op: "keys", Keys: svc.Keys(req.Table), Found: true})
	case "tables":
		svc := c.srv.opts.Service
		if svc == nil {
			c.fail(req, errf(CodeUnknownOp, "no queryable service attached"))
			return
		}
		c.send(&Frame{Seq: req.Seq, Op: "tables", Tables: svc.Tables(), Found: true})
	case "describe":
		f := &Frame{Seq: req.Seq, Op: "describe", Streams: c.srv.hub.Streams()}
		if svc := c.srv.opts.Service; svc != nil {
			f.Tables = svc.Tables()
		}
		c.send(f)
	case "ping":
		c.send(&Frame{Seq: req.Seq, Op: "ping"})
	default:
		c.fail(req, errf(CodeUnknownOp, "unknown op %q", req.Op))
	}
}

func (c *connState) subscribe(req *Request) {
	if req.ID == "" {
		c.fail(req, errf(CodeInvalidParam, "subscribe requires an id"))
		return
	}
	policy := c.srv.opts.DefaultPolicy
	if req.Policy != "" {
		p, err := load.ParseOverflowPolicy(req.Policy)
		if err != nil {
			c.fail(req, errf(CodeInvalidParam, "%v", err))
			return
		}
		policy = p
	}
	c.subMu.Lock()
	if _, dup := c.subs[req.ID]; dup {
		c.subMu.Unlock()
		c.fail(req, errf(CodeDuplicate, "subscription id %q already in use on this connection", req.ID))
		return
	}
	// The hub-wide name prefixes the connection so ids only need to be
	// unique per connection.
	name := fmt.Sprintf("c%d.%s", c.id, req.ID)
	sub, err := c.srv.hub.Subscribe(name, req.Query, req.Buffer, policy)
	if err != nil {
		c.subMu.Unlock()
		c.fail(req, err)
		return
	}
	// Disconnect policy: closing the conn unwinds a pump stuck writing into
	// a jammed socket, which is exactly the slow consumer being evicted.
	sub.OnKill(func() { c.conn.Close() })
	c.subs[req.ID] = sub
	c.pumps.Add(1)
	c.subMu.Unlock()
	c.send(&Frame{Seq: req.Seq, Op: "subscribe", ID: req.ID})
	go c.pump(req.ID, sub)
}

func (c *connState) unsubscribe(req *Request) {
	c.subMu.Lock()
	sub, ok := c.subs[req.ID]
	if ok {
		delete(c.subs, req.ID)
	}
	c.subMu.Unlock()
	if !ok {
		c.fail(req, errf(CodeUndefinedStream, "no subscription %q on this connection", req.ID))
		return
	}
	sub.Cancel()
	c.send(&Frame{Seq: req.Seq, Op: "unsubscribe", ID: req.ID})
}

// pump drains one subscription: raw records push into the per-subscription
// executor (on THIS goroutine — an expensive query costs its subscriber, not
// the job) and the resulting deltas stream to the client, each delivery
// encoded into one buffer and written at once.
func (c *connState) pump(clientID string, sub *Subscription) {
	defer c.pumps.Done()
	exec := sub.Exec()
	var (
		buf      []byte
		deltas   []cql.Delta
		shedSent int64
	)
	frame := func(f *Frame) {
		b, err := appendFrame(buf, f)
		buf = orErrorFrame(b, err, 0, clientID)
	}
	encode := func() {
		for _, d := range deltas {
			b, err := appendDelta(buf, clientID, d)
			buf = orErrorFrame(b, err, 0, clientID)
		}
		clear(deltas)
	}
	for {
		d := sub.next()
		if d.closed {
			return
		}
		buf = buf[:0]
		var err error
		deltas, err = exec.PushBatch(d.items, deltas[:0])
		encode()
		if err == nil && d.wmSet {
			// The watermark goes to the executor as the tap gave it: what it
			// completes is then the same for every subscriber of the query,
			// however their deliveries happened to be cut.
			deltas, err = exec.Advance(d.wm, deltas[:0])
			encode()
			if err == nil {
				wf := &Frame{Op: "watermark", ID: clientID, Watermark: d.wm}
				if d.shed > shedSent {
					wf.Shed, shedSent = d.shed, d.shed
				}
				frame(wf)
			}
		}
		switch {
		case err != nil:
			frame(&Frame{Op: "error", ID: clientID, Code: CodeInvalidParam, Err: err.Error()})
		case d.killed:
			frame(&Frame{Op: "error", ID: clientID, Code: CodeSlowConsumer,
				Err: "subscription fell behind with disconnect policy"})
		case d.eos:
			frame(&Frame{Op: "eos", ID: clientID, Shed: sub.Shed()})
		}
		// A subscription that is ending leaves the hub before its terminal
		// frame leaves the server: a client that has read eos no longer
		// finds it among the subscribers.
		ended := err != nil || d.killed || d.eos
		if ended {
			c.dropSub(clientID, sub)
		}
		if werr := c.write(buf); ended || werr != nil {
			c.dropSub(clientID, sub) // a no-op if it has left already
			return
		}
	}
}

func (c *connState) dropSub(clientID string, sub *Subscription) {
	sub.Cancel()
	c.subMu.Lock()
	if cur, ok := c.subs[clientID]; ok && cur == sub {
		delete(c.subs, clientID)
	}
	c.subMu.Unlock()
}
