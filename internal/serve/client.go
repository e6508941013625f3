package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
)

// Client speaks the serve wire protocol: request/reply ops correlated by
// sequence number plus asynchronous subscription frames dispatched to
// per-subscription channels. Safe for concurrent use.
type Client struct {
	conn net.Conn

	writeMu sync.Mutex
	w       *bufio.Writer

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]chan *Frame
	subs    map[string]*ClientSub
	err     error // terminal read-loop error
	done    chan struct{}
}

// ClientSub is one live subscription's receive side.
type ClientSub struct {
	// ID is the client-chosen subscription id.
	ID string
	// Frames delivers the subscription's stream in order: "delta" frames
	// (Kind/Ts/Row), "watermark" frames, then one final "eos" or "error"
	// frame, after which the channel closes. The read loop blocks while this
	// channel is full — consume it promptly or buffer on your side; the
	// SERVER never blocks either way (its per-subscription queue sheds).
	Frames chan *Frame

	mu     sync.Mutex
	closed bool
}

// deliver hands one frame to the consumer; false once the channel is shut.
// The send blocks under mu so shut() serialises behind in-flight deliveries
// instead of racing a close against them.
func (s *ClientSub) deliver(f *Frame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.Frames <- f
	return true
}

func (s *ClientSub) shut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.Frames)
	}
}

// Dial connects to a serve front door.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial: %w", err)
	}
	c := &Client{
		conn:    conn,
		w:       bufio.NewWriter(conn),
		pending: map[uint64]chan *Frame{},
		subs:    map[string]*ClientSub{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; all pending calls and subscription
// channels terminate.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	var dec frameDecoder
	var readErr error
	var body []byte
	for {
		f := new(Frame)
		var err error
		if body, err = readBody(r, body); err == nil {
			err = dec.decode(body, f)
		}
		if err != nil {
			readErr = err
			break
		}
		if f.Seq != 0 {
			c.mu.Lock()
			ch := c.pending[f.Seq]
			delete(c.pending, f.Seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			}
			continue
		}
		// Stream frame for a subscription; terminal frames close it.
		c.mu.Lock()
		sub := c.subs[f.ID]
		terminal := f.Op == "eos" || f.Op == "error"
		if terminal {
			delete(c.subs, f.ID)
		}
		c.mu.Unlock()
		if sub == nil {
			if f.ID == "" && f.Op == "error" {
				// Connection-scoped error (e.g. 57P01 shutdown).
				readErr = fmt.Errorf("serve: server: %s: %s", f.Code, f.Err)
				break
			}
			continue // frame for an already-dropped subscription
		}
		sub.deliver(f)
		if terminal {
			sub.shut()
		}
	}
	// Fail everything still outstanding.
	c.mu.Lock()
	if readErr == nil {
		readErr = fmt.Errorf("serve: connection closed")
	}
	c.err = readErr
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		close(ch)
	}
	subs := make([]*ClientSub, 0, len(c.subs))
	for id, sub := range c.subs {
		delete(c.subs, id)
		subs = append(subs, sub)
	}
	c.mu.Unlock()
	for _, sub := range subs {
		sub.shut()
	}
	close(c.done)
}

func (c *Client) call(req *Request) (*Frame, error) {
	ch := make(chan *Frame, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	req.Seq = c.seq
	c.pending[req.Seq] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := writeFrame(c.w, req)
	if err == nil {
		err = c.w.Flush()
	}
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.Seq)
		c.mu.Unlock()
		return nil, fmt.Errorf("serve: send: %w", err)
	}
	f, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if f.Op == "error" {
		return nil, &Error{Code: f.Code, Msg: f.Err}
	}
	return f, nil
}

// SubscribeOptions tune one subscription's server-side queue.
type SubscribeOptions struct {
	// Buffer is the queue capacity (0 = server default).
	Buffer int
	// Policy is "drop-oldest", "drop-newest" or "disconnect" ("" = server
	// default).
	Policy string
}

// Subscribe registers a continuous CQL query under id and returns its
// receive side once the server acknowledges it. Deltas for records published
// after the ack are guaranteed to arrive; the subscription ends with an
// "eos" or "error" frame and a closed channel.
func (c *Client) Subscribe(id, query string, opts SubscribeOptions) (*ClientSub, error) {
	sub := &ClientSub{ID: id, Frames: make(chan *Frame, 256)}
	c.mu.Lock()
	if _, dup := c.subs[id]; dup {
		c.mu.Unlock()
		return nil, &Error{Code: CodeDuplicate, Msg: fmt.Sprintf("subscription id %q already in use", id)}
	}
	// Register before the ack: the server may start streaming deltas the
	// moment it accepts, ahead of our reply arriving.
	c.subs[id] = sub
	c.mu.Unlock()
	if _, err := c.call(&Request{Op: "subscribe", ID: id, Query: query,
		Buffer: opts.Buffer, Policy: opts.Policy}); err != nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}

// Unsubscribe cancels a subscription; its channel closes without a terminal
// frame.
func (c *Client) Unsubscribe(id string) error {
	_, err := c.call(&Request{Op: "unsubscribe", ID: id})
	c.mu.Lock()
	sub := c.subs[id]
	delete(c.subs, id)
	c.mu.Unlock()
	if sub == nil {
		return err
	}
	// The map removal stops future routing; at most one in-flight deliver
	// remains. Draining the channel guarantees that deliver cannot block, so
	// the shut cannot deadlock against it.
	for {
		select {
		case _, ok := <-sub.Frames:
			if !ok {
				return err
			}
		default:
			sub.shut()
			return err
		}
	}
}

// Get point-queries one key of a queryable table. Values round-trip through
// JSON (numbers arrive as float64).
func (c *Client) Get(table, key string) (any, bool, error) {
	f, err := c.call(&Request{Op: "get", Table: table, Key: key})
	if err != nil {
		return nil, false, err
	}
	return f.Value, f.Found, nil
}

// Keys lists a queryable table's keys.
func (c *Client) Keys(table string) ([]string, error) {
	f, err := c.call(&Request{Op: "keys", Table: table})
	if err != nil {
		return nil, err
	}
	return f.Keys, nil
}

// Tables lists the queryable table names.
func (c *Client) Tables() ([]string, error) {
	f, err := c.call(&Request{Op: "tables"})
	if err != nil {
		return nil, err
	}
	return f.Tables, nil
}

// Describe returns the servable stream names and queryable tables.
func (c *Client) Describe() (streams, tables []string, err error) {
	f, err := c.call(&Request{Op: "describe"})
	if err != nil {
		return nil, nil, err
	}
	return f.Streams, f.Tables, nil
}

// Ping round-trips a no-op request.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Op: "ping"})
	return err
}
