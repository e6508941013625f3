// Package serve is the stream SQL front door (§4.2): a TCP server where
// external clients submit continuous CQL queries over a RUNNING job's tapped
// streams, receive the resulting delta stream, and point-query queryable
// state — all over one connection. The job never blocks on a client: every
// subscription owns a bounded queue with a load-shedding overflow policy, so
// a stalled consumer sheds (or is disconnected) while the pipeline's own
// output stays byte-identical to an unserved run.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cql"
)

// SQLSTATE-style error codes carried on error frames. Clients switch on the
// class, not the message text.
const (
	// CodeSyntax — the CQL text failed to parse or validate (42601).
	CodeSyntax = "42601"
	// CodeUndefinedStream — the query references a stream (or point query a
	// table) the server does not serve (42P01).
	CodeUndefinedStream = "42P01"
	// CodeDuplicate — the subscription id is already in use on this
	// connection (42710).
	CodeDuplicate = "42710"
	// CodeInvalidParam — a request parameter is out of range or malformed
	// (22023).
	CodeInvalidParam = "22023"
	// CodeProtocol — the frame stream itself is broken: oversized frame,
	// invalid JSON, missing required field (08P01).
	CodeProtocol = "08P01"
	// CodeShutdown — the server is closing; the connection will drop (57P01).
	CodeShutdown = "57P01"
	// CodeSlowConsumer — the subscription's disconnect overflow policy
	// tripped: the client fell too far behind and asked to fail loudly
	// rather than see gaps (53400).
	CodeSlowConsumer = "53400"
	// CodeUnknownOp — the request op is not implemented (0A000).
	CodeUnknownOp = "0A000"
)

// Error is a coded serve-layer error; the code travels on the wire.
type Error struct {
	Code string
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

func errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Request is the client->server message. Seq correlates the reply; it must
// be non-zero and should increase.
type Request struct {
	Seq uint64 `json:"seq"`
	// Op selects the action: "subscribe", "unsubscribe", "get", "keys",
	// "tables", "describe", "ping".
	Op string `json:"op"`
	// ID names a subscription (client-chosen, unique per connection).
	ID string `json:"id,omitempty"`
	// Query is the CQL text for subscribe.
	Query string `json:"query,omitempty"`
	// Buffer overrides the subscription's queue capacity (0 = server
	// default).
	Buffer int `json:"buffer,omitempty"`
	// Policy overrides the overflow policy: "drop-oldest" (default),
	// "drop-newest" or "disconnect".
	Policy string `json:"policy,omitempty"`
	// Table and Key address point queries.
	Table string `json:"table,omitempty"`
	Key   string `json:"key,omitempty"`
}

// Frame is every server->client message. Reply frames echo the request's Seq
// and Op; asynchronous stream frames have Seq 0 and carry the subscription ID
// with Op "delta", "watermark", "eos" or "error".
type Frame struct {
	Seq uint64 `json:"seq,omitempty"`
	Op  string `json:"op"`
	ID  string `json:"id,omitempty"`

	// Point-query / describe reply payloads.
	Found   bool     `json:"found,omitempty"`
	Value   any      `json:"value,omitempty"`
	Keys    []string `json:"keys,omitempty"`
	Streams []string `json:"streams,omitempty"`
	Tables  []string `json:"tables,omitempty"`

	// Delta payload ("insert" | "delete") and event-time progress.
	Kind      string  `json:"kind,omitempty"`
	Ts        int64   `json:"ts,omitempty"`
	Row       cql.Row `json:"row,omitempty"`
	Watermark int64   `json:"watermark,omitempty"`
	// Shed reports how many records the subscription's overflow policy has
	// dropped so far: on a watermark frame whenever the count has grown since
	// the last one sent, and on the eos frame.
	Shed int64 `json:"shed,omitempty"`

	// Error payload: a SQLSTATE-style code plus human-readable detail.
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
}

// maxFrame bounds one frame's JSON body; a length prefix beyond it is a
// protocol violation, not an allocation request.
const maxFrame = 1 << 20

// writeFrame writes one length-prefixed JSON frame: 4-byte big-endian body
// length, then the body.
func writeFrame(w io.Writer, v any) error {
	b, err := appendFrame(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed JSON frame into v.
func readFrame(r io.Reader, v any) error {
	_, err := readFrameBuf(r, nil, v)
	return err
}

// readFrameBuf is readFrame with the body read into buf, grown as needed and
// returned for the next call; v keeps no reference to it.
func readFrameBuf(r io.Reader, buf []byte, v any) ([]byte, error) {
	buf, err := readBody(r, buf)
	if err != nil {
		return buf, err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return buf, fmt.Errorf("serve: decode frame: %w", err)
	}
	return buf, nil
}

// readBody reads one length-prefixed frame body into buf, grown as needed.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return buf, fmt.Errorf("serve: frame length %d exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}
