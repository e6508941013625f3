// Package elastic is the scaling policy that closes the reconfiguration loop
// §3.3/§4.2 of the paper present as the defining second→third-generation
// capability: instead of simulating elasticity (internal/load/sim.go), it
// watches a *running* core.Job's metrics, feeds them to a decision — a
// DS2-style load.ScalingPolicy by default — and asks the lineage's
// ha.Supervisor to Rescale when the decision changes. The supervisor runs the
// online rescale itself —
//
//	stop-with-savepoint → RescaleCheckpoint to the new parallelism
//	→ rebuild the physical job → RestoreFrom the rescaled checkpoint → resume
//
// — and recovers a crash anywhere in that window by rolling back to the
// latest completed checkpoint at that checkpoint's own parallelism. Output
// across all incarnations is merged exactly-once, and under a deterministic
// keyed pipeline it is byte-identical to a fixed-parallelism run (the E17
// equality experiment).
package elastic

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obsv"
)

// Sample is one observation of the scaled node, the input to a scaling
// decision.
type Sample struct {
	// InputRate is the records/s arriving at the node, measured on the wall
	// clock. Under backpressure this is the *throttled* rate, not demand.
	InputRate float64
	// TrueRate is the DS2 "true processing rate": records per second of
	// busy (useful-work) time per instance — what one instance could do if
	// never idle. Non-finite before the node has done any work; the policy
	// holds the current parallelism on non-finite rates.
	TrueRate float64
	// BlockedFraction estimates the fraction of wall time upstream senders
	// spent blocked on the node's inboxes (0 when no Upstream is configured).
	// FromPolicy inflates InputRate by 1/(1-BlockedFraction) to recover
	// offered demand from the throttled observation.
	BlockedFraction float64
	// Parallelism is the node's parallelism when the sample was taken.
	Parallelism int
	// Records counts records the node has received across all incarnations.
	// It is monotone but may double-count the replayed tail after a restore;
	// scripted deciders use it as a stream-position clock.
	Records int64
}

// FromPolicy adapts a DS2 scaling policy into a Config.Decide function,
// correcting the observed input rate for backpressure first.
func FromPolicy(p *load.ScalingPolicy) func(s Sample, current int) int {
	return func(s Sample, current int) int {
		demand := s.InputRate
		if f := s.BlockedFraction; f > 0 && f < 1 {
			// The node admitted InputRate while its senders were blocked for
			// fraction f of the wall clock: the offered rate is what would
			// have arrived had they never stalled.
			demand = s.InputRate / (1 - f)
		}
		return p.Decide(demand, s.TrueRate, current)
	}
}

// Config parameterises an elastic lineage.
type Config struct {
	// Node is the operator node the policy scales.
	Node string
	// Upstream optionally names the node feeding Node; when set, the edge's
	// blocked-send histogram drives the backpressure correction.
	Upstream string

	Build ha.BuildFunc
	Store core.SnapshotStore

	// Decide maps each sample and the current parallelism to a target
	// parallelism: FromPolicy for the rate-driven DS2 policy, or a script
	// that pins deterministic rescale points.
	Decide func(s Sample, current int) int

	// InitialParallelism is the scaled node's starting parallelism
	// (default 1).
	InitialParallelism int
	// SampleEvery is the metric sampling/decision interval (default 10ms).
	SampleEvery time.Duration

	// Restart bounds crash recovery, exactly as in ha.RunSupervised.
	Restart ha.RestartStrategy
	// OnStart observes each incarnation before it runs; fault injectors use
	// it to re-aim kill switches.
	OnStart func(attempt int, job *core.Job)

	Tracer *obsv.Tracer
	Logger io.Writer
}

// New validates cfg and returns the supervisor of an elastic lineage, with
// the policy as its Watch: Run it to drive the pipeline to completion,
// Describe and Metrics to watch it.
func New(cfg Config) (*ha.Supervisor, error) {
	switch {
	case cfg.Node == "":
		return nil, fmt.Errorf("elastic: Config.Node is required")
	case cfg.Build == nil:
		return nil, fmt.Errorf("elastic: Config.Build is required")
	case cfg.Store == nil:
		return nil, fmt.Errorf("elastic: Config.Store is required")
	case cfg.Decide == nil:
		return nil, fmt.Errorf("elastic: Config.Decide is required")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 10 * time.Millisecond
	}
	lg := log.New(io.Discard, "", 0)
	if cfg.Logger != nil {
		lg = log.New(cfg.Logger, "[elastic:"+cfg.Node+"] ", log.Lmicroseconds)
	}
	sup := &ha.Supervisor{
		Build:       cfg.Build,
		Store:       cfg.Store,
		Restart:     cfg.Restart,
		Node:        cfg.Node,
		Parallelism: cfg.InitialParallelism,
		OnStart:     cfg.OnStart,
		Tracer:      cfg.Tracer,
		Log:         lg,
	}
	// records counts what Node consumed in finished incarnations; the
	// supervisor runs one Watch at a time.
	var records int64
	sup.Watch = func(ctx context.Context, inc ha.Incarnation) error {
		senders := 1
		for _, n := range inc.Job.Describe().Nodes {
			if n.Name == cfg.Upstream {
				senders = n.Parallelism
			}
		}
		reg := inc.Job.Metrics()
		smp := newSampler(reg, cfg.Node, cfg.Upstream, senders, inc.Parallelism, records)
		ticker := time.NewTicker(cfg.SampleEvery)
		defer ticker.Stop()
		requested := false
		for {
			select {
			case <-ctx.Done():
				records += reg.Counter("node." + cfg.Node + ".in").Value()
				return nil
			case <-ticker.C:
				s := smp.sample()
				lineage := sup.Metrics()
				lineage.Gauge("elastic.input_rate").Set(int64(s.InputRate))
				if !math.IsNaN(s.TrueRate) && !math.IsInf(s.TrueRate, 0) {
					lineage.Gauge("elastic.true_rate").Set(int64(s.TrueRate))
				}
				lineage.Gauge("elastic.blocked_pct").Set(int64(s.BlockedFraction * 100))
				if requested {
					continue // savepoint already accepted; ride it out
				}
				if want := cfg.Decide(s, inc.Parallelism); sup.Rescale(want) {
					requested = true
					lg.Printf("rescale %d -> %d requested (in=%.0f/s true=%.0f/s blocked=%d%%)",
						inc.Parallelism, want, s.InputRate, s.TrueRate, int(s.BlockedFraction*100))
				}
			}
		}
	}
	return sup, nil
}

// sampler derives rate samples from counter deltas over wall time. It reads
// the job's own registry, so each incarnation gets a fresh sampler whose
// Records are offset by the lineage's running total.
type sampler struct {
	reg       *metrics.Registry
	node      string
	upstream  string
	senders   int
	par       int
	base      int64
	lastWall  time.Time
	lastIn    int64
	lastBusy  int64
	lastBlkNs int64
	havePrev  bool
}

func newSampler(reg *metrics.Registry, node, upstream string, senders, par int, base int64) *sampler {
	return &sampler{reg: reg, node: node, upstream: upstream, senders: senders, par: par, base: base}
}

func (s *sampler) busyNs() int64 {
	var total int64
	for i := 0; i < s.par; i++ {
		total += s.reg.Counter(fmt.Sprintf("node.%s.%d.busy_ns", s.node, i)).Value()
	}
	return total
}

func (s *sampler) blockedNs() int64 {
	if s.upstream == "" {
		return 0
	}
	return s.reg.Histogram("edge." + s.upstream + "." + s.node + ".blocked_ns").Export().Sum
}

func (s *sampler) sample() Sample {
	now := time.Now()
	in := s.reg.Counter("node." + s.node + ".in").Value()
	busy := s.busyNs()
	blocked := s.blockedNs()
	out := Sample{Parallelism: s.par, Records: s.base + in}
	if s.havePrev {
		dt := now.Sub(s.lastWall).Seconds()
		dIn := float64(in - s.lastIn)
		dBusySec := float64(busy-s.lastBusy) / 1e9
		if dt > 0 {
			out.InputRate = dIn / dt
			if s.upstream != "" {
				f := float64(blocked-s.lastBlkNs) / 1e9 / (dt * float64(s.senders))
				// Cap below 1: a fully-blocked interval would otherwise
				// claim infinite demand.
				out.BlockedFraction = math.Min(math.Max(f, 0), 0.95)
			}
		}
		// Deliberately unguarded: 0/0 and x/0 yield NaN/Inf before the node
		// has done measurable work, and ScalingPolicy.Decide holds the
		// current parallelism on non-finite rates.
		out.TrueRate = dIn / dBusySec
	} else {
		out.TrueRate = math.NaN()
	}
	s.lastWall, s.lastIn, s.lastBusy, s.lastBlkNs = now, in, busy, blocked
	s.havePrev = true
	return out
}
