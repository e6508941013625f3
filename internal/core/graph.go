package core

import (
	"fmt"
	"time"

	"repro/internal/eventtime"
	"repro/internal/obsv"
	"repro/internal/state"
)

// PartitionKind determines how an edge distributes records across downstream
// instances.
type PartitionKind uint8

const (
	// PartitionForward sends instance i to instance i (requires equal
	// parallelism).
	PartitionForward PartitionKind = iota
	// PartitionHash routes by key group of the event key.
	PartitionHash
	// PartitionRebalance distributes round-robin.
	PartitionRebalance
	// PartitionBroadcast replicates every record to all instances.
	PartitionBroadcast
)

// KeySelector derives the routing key of an event.
type KeySelector func(e Event) string

// node is a logical graph vertex.
type node struct {
	id          int
	name        string
	parallelism int
	isSource    bool
	sourceFac   SourceFactory
	opFac       OperatorFactory
	// wmStrategy builds a watermark generator per source instance; nil means
	// the source emits no automatic watermarks.
	wmStrategy func() eventtime.WatermarkGenerator
	// wmInterval is the number of records between periodic watermark
	// emissions at sources.
	wmInterval int
	inEdges    []*edge
	outEdges   []*edge
}

// edge is a logical graph connection.
type edge struct {
	id       int
	from, to *node
	kind     PartitionKind
	keySel   KeySelector
}

// Graph is the logical dataflow assembled by a Builder.
type Graph struct {
	nodes []*node
	edges []*edge
}

// validate checks the structural invariants the runtime depends on.
func (g *Graph) validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("core: empty graph")
	}
	names := make(map[string]bool)
	hasSource := false
	for _, n := range g.nodes {
		if n.name == "" {
			return fmt.Errorf("core: node %d has no name", n.id)
		}
		if names[n.name] {
			return fmt.Errorf("core: duplicate node name %q", n.name)
		}
		names[n.name] = true
		if n.parallelism < 1 {
			return fmt.Errorf("core: node %q has parallelism %d", n.name, n.parallelism)
		}
		if n.isSource {
			hasSource = true
			if len(n.inEdges) > 0 {
				return fmt.Errorf("core: source %q has inputs", n.name)
			}
			if n.sourceFac == nil {
				return fmt.Errorf("core: source %q has no factory", n.name)
			}
		} else {
			if len(n.inEdges) == 0 {
				return fmt.Errorf("core: node %q has no inputs", n.name)
			}
			if n.opFac == nil {
				return fmt.Errorf("core: node %q has no operator factory", n.name)
			}
		}
	}
	if !hasSource {
		return fmt.Errorf("core: graph has no source")
	}
	for _, e := range g.edges {
		if e.kind == PartitionForward && e.from.parallelism != e.to.parallelism {
			return fmt.Errorf("core: forward edge %q->%q requires equal parallelism (%d vs %d)",
				e.from.name, e.to.name, e.from.parallelism, e.to.parallelism)
		}
		if e.kind == PartitionHash && e.keySel == nil {
			return fmt.Errorf("core: hash edge %q->%q has no key selector", e.from.name, e.to.name)
		}
	}
	if err := g.checkAcyclic(); err != nil {
		return err
	}
	return nil
}

// checkAcyclic rejects cycles: feedback loops are handled by the iterate
// package's dedicated runtime, not the core DAG engine.
func (g *Graph) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(g.nodes))
	var visit func(n *node) error
	visit = func(n *node) error {
		color[n.id] = grey
		for _, e := range n.outEdges {
			switch color[e.to.id] {
			case grey:
				return fmt.Errorf("core: graph has a cycle through %q", e.to.name)
			case white:
				if err := visit(e.to); err != nil {
					return err
				}
			}
		}
		color[n.id] = black
		return nil
	}
	for _, n := range g.nodes {
		if color[n.id] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Config carries job-level settings.
type Config struct {
	// Name labels the job in logs and snapshot metadata.
	Name string
	// ChannelCapacity bounds inter-instance channels; this bound is what
	// creates natural backpressure (§3.3). Default 256.
	ChannelCapacity int
	// DefaultParallelism applies to nodes that don't override it. Default 1.
	DefaultParallelism int
	// NumKeyGroups is the key-group fan-out for keyed state. Default
	// state.DefaultKeyGroups.
	NumKeyGroups int
	// BackendFactory builds a state backend per operator instance. Default
	// builds MemoryBackends.
	BackendFactory func(nodeName string, instance int) (state.Backend, error)
	// SnapshotStore persists checkpoints; nil disables checkpointing.
	SnapshotStore SnapshotStore
	// CheckpointEvery requests a checkpoint after every this many records of
	// each source instance (clock-free); a request made while a checkpoint
	// awaits acks is coalesced into it, and one made while the store is
	// still completing the previous checkpoint is skipped. 0 disables
	// automatic checkpoints (manual TriggerCheckpoint still works when a
	// store is set).
	CheckpointEvery int
	// SnapshotRetries is how many extra attempts a failed snapshot Save gets
	// before the checkpoint is aborted (the job keeps running and the next
	// barrier subsumes the aborted checkpoint). Default 2; negative disables
	// retries.
	SnapshotRetries int
	// SnapshotRetryBackoff is the fixed delay between snapshot Save retries.
	// Default 2ms.
	SnapshotRetryBackoff time.Duration
	// MaxBatchSize is the batch capacity: records travel between instances
	// only in pooled batches of at most this many records, one open batch
	// per sender and downstream instance. A batch ships when it is full,
	// before every control message (watermark, barrier, EOS, latency marker),
	// and when its sender runs out of input — an operator instance before it
	// waits on an empty inbox, a source as each Collect/CollectBatch call
	// returns — so no record waits for input its sender does not have, and
	// results, aligned exactly-once snapshots included, do not depend on
	// where batches are cut. ChannelCapacity counts records, so the inbox
	// holds ChannelCapacity/MaxBatchSize batches. 0 or 1 (the default) means
	// one record per batch.
	MaxBatchSize int
	// WatermarkInterval is the default number of records between periodic
	// watermark emissions at sources. Default 32.
	WatermarkInterval int
	// Instrument enables the observability layer (§3.3): queue-depth and
	// watermark-lag gauges, blocked-send (backpressure) histograms, checkpoint
	// timing metrics, and — when LatencyMarkerInterval is set — latency
	// markers. Off by default; the disabled paths add no allocations and no
	// timer reads to the record hot path.
	Instrument bool
	// LatencyMarkerInterval injects a latency marker every this many records
	// per source instance when Instrument is set. Markers flow through every
	// operator's channels and populate the per-operator latency_ns and
	// per-edge hop_ns histograms. 0 disables markers.
	LatencyMarkerInterval int
	// Tracer records structured spans (operator batches, checkpoints, barrier
	// alignment, source/instance lifecycles) into a ring buffer for the
	// /traces endpoint. nil disables tracing.
	Tracer *obsv.Tracer
	// DeltaCheckpoints makes checkpoints between periodic full snapshots
	// serialize only the state changed since the last completed checkpoint
	// (RocksDB/Samza-style incremental checkpointing): checkpoint bytes scale
	// with the change rate instead of total state size. Recovery replays the
	// full image plus the delta chain. Backends that don't implement
	// state.DeltaBackend, and savepoints, always take full snapshots. Off by
	// default.
	DeltaCheckpoints bool
	// FullSnapshotEvery bounds the delta chain: every Nth checkpoint is a
	// full snapshot (recovery replays at most N-1 deltas). Default 8.
	FullSnapshotEvery int
	// LSMNativeSnapshots makes state.FileBackend backends (the LSM backend)
	// checkpoint by referencing their immutable SSTables — hard-linked into a
	// FileSnapshotStore when local, embedded otherwise — instead of
	// serializing a full state image: unchanged SSTables cost zero bytes.
	// Savepoints still serialize the portable image. Off by default.
	LSMNativeSnapshots bool
}

func (c Config) withDefaults() Config {
	if c.ChannelCapacity <= 0 {
		c.ChannelCapacity = 256
	}
	if c.DefaultParallelism <= 0 {
		c.DefaultParallelism = 1
	}
	if c.NumKeyGroups <= 0 {
		c.NumKeyGroups = state.DefaultKeyGroups
	}
	if c.WatermarkInterval <= 0 {
		c.WatermarkInterval = 32
	}
	if c.SnapshotRetries == 0 {
		c.SnapshotRetries = 2
	} else if c.SnapshotRetries < 0 {
		c.SnapshotRetries = 0
	}
	if c.SnapshotRetryBackoff <= 0 {
		c.SnapshotRetryBackoff = 2 * time.Millisecond
	}
	if c.FullSnapshotEvery <= 0 {
		c.FullSnapshotEvery = 8
	}
	if c.BackendFactory == nil {
		groups := c.NumKeyGroups
		c.BackendFactory = func(string, int) (state.Backend, error) {
			return state.NewMemoryBackend(groups), nil
		}
	}
	return c
}
