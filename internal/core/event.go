// Package core implements the dataflow stream-processing engine at the heart
// of this reproduction: a 2nd-generation, Flink/Millwheel-style scale-out
// runtime (logical graph → parallel operator instances connected by bounded
// channels) carrying records, watermarks, checkpoint barriers and
// end-of-stream markers, with managed keyed state, event-time timers, and
// aligned-barrier exactly-once snapshots. The 1st-generation techniques
// (synopses, load shedding, slack) and 3rd-generation prospects (stateful
// functions, transactions, iteration) from the paper are built on top of, or
// contrasted against, this engine by the sibling packages.
package core

import (
	"fmt"
)

// Event is one data element flowing through the dataflow. Timestamp is the
// event time in Unix milliseconds; Key is set once the stream has been keyed
// (empty on non-keyed streams).
type Event struct {
	Key       string
	Timestamp int64
	Value     any
}

// String renders the event for debugging.
func (e Event) String() string {
	return fmt.Sprintf("Event{key=%q ts=%d value=%v}", e.Key, e.Timestamp, e.Value)
}

// msgKind discriminates the in-band message types on engine channels.
type msgKind uint8

const (
	// msgRecordBatch carries one or more records — the only unit of record
	// exchange; a single record travels as a batch of one. A batch never
	// spans a control message: senders flush open batches before every
	// watermark, barrier, EOS and latency marker, so alignment and progress
	// semantics do not depend on where batches are cut.
	msgRecordBatch msgKind = iota
	// msgWatermark asserts event-time progress (§2.3).
	msgWatermark
	// msgBarrier is a checkpoint barrier (aligned snapshotting, §3.1/§3.2).
	msgBarrier
	// msgEOS signals that the sending channel is exhausted.
	msgEOS
	// msgLatencyMarker is a latency probe (§3.3 observability): injected at
	// sources on a configurable interval, it rides the data channels through
	// every operator, so the time it accumulates is exactly the queueing +
	// processing latency a record experiences. Operators never see markers;
	// each instance records the latency and forwards a fresh marker.
	msgLatencyMarker
)

// message is the unit transported on inter-instance channels. channel is the
// receiver-local input-channel index identifying the (edge, upstream
// instance) pair the message arrived on — required for watermark and barrier
// alignment. drain qualifies msgEOS: a draining end-of-stream (natural end)
// advances event time to infinity and flushes open windows; a non-draining
// one (stop-with-savepoint) terminates without firing, so restored state
// resumes exactly where it left off.
type message struct {
	kind    msgKind
	channel int
	wm      int64
	barrier barrierMark
	drain   bool
	// marker is only set on msgLatencyMarker messages; a pointer keeps the
	// message struct small on the record hot path.
	marker *latencyMarker
	// batch is only set on msgRecordBatch messages. It points at a pooled
	// slice: the receiver returns it to batchPool after unpacking, so a
	// steady-state batched exchange allocates nothing per batch.
	batch *[]Event
}

// latencyMarker is the payload of a msgLatencyMarker. Receivers must treat a
// marker as immutable — the same marker may fan out to several edges — and
// forward a fresh one.
type latencyMarker struct {
	// origin is the wall-clock UnixNano at source injection; now-origin at an
	// instance is the end-to-end latency from source to that operator.
	origin int64
	// hopped is the wall-clock UnixNano at the last forwarding hop; now-hopped
	// is the single-hop (channel + queueing) latency.
	hopped int64
	// from names the node that forwarded the marker (per-edge attribution).
	from string
	// source identifies the originating source instance.
	source string
}

// barrierMark carries checkpoint metadata with a barrier.
type barrierMark struct {
	// ID is the checkpoint sequence number.
	ID int64
	// Savepoint marks a final checkpoint taken for a planned stop/rescale.
	Savepoint bool
	// DeltaBase, when non-zero, asks backends to snapshot only the state
	// changed since that (completed) checkpoint. Backends that cannot honor
	// it fall back to a full snapshot. Savepoints are never deltas.
	DeltaBase int64
}
