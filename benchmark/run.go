package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ha"
	"repro/internal/metrics"
	"repro/internal/queryable"
	"repro/internal/state"
	"repro/internal/window"
)

// phaseKind says how a phase's generator runs.
type phaseKind int

const (
	// probe builds everything and admits nothing: a set-up sample.
	probe phaseKind = iota
	// saturation is the closed loop: the source offers the next chunk as soon
	// as the bounded channels took the previous one.
	saturation
	// paced is the open loop at the workload's fixed rate.
	paced
)

func (k phaseKind) String() string { return [...]string{"probe", "saturation", "paced"}[k] }

// runOpts is everything one workload run depends on.
type runOpts struct {
	w       workload
	seed    int64
	measure time.Duration // measured time of each of the two phases
	warm    time.Duration // warm-up before it
	traced  bool
	outDir  string // scratch state and trace files go here
	ring    int    // ring size in records
	// rateScale scales the paced rate; tests run far below the frozen rate so
	// that they do not depend on the speed of the box.
	rateScale float64
	// saveDelay is injected into the traced snapshot store's Save.
	saveDelay time.Duration
}

// phaseResult is what one phase measured.
type phaseResult struct {
	setup      time.Duration // start of set-up to the first source running
	wall       time.Duration // the job's run, start to drained
	throughput float64       // saturation: records admitted per second, measured window
	latency    *sliced       // paced: due time to observation
	sustained  bool          // paced: the generator ended the phase on schedule
	verdict    verdict
	feed       *feed
	recovered  []time.Duration // paced, durable: kill to caught up, per kill
	layers     *layerCounts    // traced saturation phase: its sums alone
	serve      *serveResult    // serve workloads only
}

// phase is the environment of one phase: the input, the generator, the
// consumer and whatever the workload's job needs around it.
type phase struct {
	o    runOpts
	kind phaseKind
	clk  clock
	tr   *tracer
	span int

	ring  *ring
	feed  *feed
	col   *collector
	store core.SnapshotStore // durable workloads
	timed *timedStore        // the same store, when traced
	dir   string             // durable workloads: scratch directory
	srv   *serveEnv          // serve workloads

	checkpointEvery int

	mu       sync.Mutex
	backends []*stateCounts      // traced: one per backend ever built
	jobs     []*metrics.Registry // one per incarnation
	live     atomic.Pointer[core.Job]
}

// firstOperator is the node downstream of the source in the durable
// workload's job.
const firstOperator = "window"

func byKey(e core.Event) string { return e.Key }

func identity(e core.Event) (core.Event, bool) { return e, true }

// build compiles the workload's job for the next incarnation.
func (p *phase) build() (*core.Job, error) {
	w := p.o.w
	cfg := engineConfig(w.name)
	if p.o.traced {
		cfg.Instrument = true
		cfg.LatencyMarkerInterval = 64
	}
	if w.durable {
		cfg.SnapshotStore = p.store
		cfg.CheckpointEvery = p.checkpointEvery
	}
	if w.durable || p.o.traced {
		cfg.BackendFactory = p.backend
	}
	b := core.NewBuilder(cfg)
	src := b.Source("src", p.feed.factory(), core.WithParallelism(1), core.WithBoundedDisorder(0))
	sink := core.SinkFunc(p.col.sink)
	if w.windowMs == 0 {
		src.Map("map1", identity).
			Rebalance().
			Filter("filter", func(e core.Event) bool { return e.Value.(*payload).slot%10 != 0 }).
			KeyBy(byKey).
			Map("map2", identity).
			Sink("sink", sink)
		return b.Build()
	}
	if w.serve {
		src = src.TapInto("tap", p.srv.tap)
	}
	sums := window.Apply(src.KeyBy(byKey), "window", window.NewTumbling(w.windowMs),
		window.FloatAggregate(window.Sum, func(e core.Event) float64 { return e.Value.(*payload).v }))
	sums.Sink("sink", sink)
	if w.serve {
		queryable.PublishOperator(sums.KeyBy(byKey), "publish", p.srv.svc, servedTable, "sum",
			func(e core.Event, ctx core.Context) { ctx.State().Value("sum").Set(e.Value) })
	}
	return b.Build()
}

// backend is the job's BackendFactory: an LSM tree in a fresh directory per
// incarnation for durable workloads, the engine's default memory backend
// otherwise, decorated when the run is traced.
func (p *phase) backend(node string, instance int) (state.Backend, error) {
	var b state.Backend
	if p.o.w.durable {
		dir := filepath.Join(p.dir, fmt.Sprintf("lsm-%d-%s-%d", p.col.run, node, instance))
		lsm, err := state.NewLSMBackend(dir, state.DefaultKeyGroups)
		if err != nil {
			return nil, err
		}
		b = lsm
	} else {
		b = state.NewMemoryBackend(state.DefaultKeyGroups)
	}
	if !p.o.traced {
		return b, nil
	}
	b, counts := decorate(b, p.clk)
	p.mu.Lock()
	p.backends = append(p.backends, counts)
	p.mu.Unlock()
	return b, nil
}

// newPhase does the set-up of one phase: input ring, generator, consumer,
// stores, server and subscriptions. Everything here and in the job's start
// counts as set-up time. old is the previous phase's ring, for its memory.
func newPhase(o runOpts, kind phaseKind, clk clock, tr *tracer, parent int, old *ring) (*phase, error) {
	p := &phase{o: o, kind: kind, clk: clk, tr: tr}
	p.span = tr.begin("phase."+kind.String(), parent)
	w := o.w
	p.ring = newRing(o.seed, o.ring, w.keys, w.bursty, old)
	p.feed = &feed{ring: p.ring, clk: clk, tr: tr, phaseSpan: p.span}
	p.col = &collector{clk: clk, ring: p.ring, traced: o.traced}
	if w.windowMs == 0 {
		p.col.records = &recordCheck{ring: p.ring, want: passesFilter}
		p.col.latency = newSliced()
	}
	rate := w.rate * o.rateScale
	if w.durable {
		p.dir = filepath.Join(o.outDir, fmt.Sprintf("state-%d-%s", os.Getpid(), kind))
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return nil, err
		}
		fs, err := core.NewFileSnapshotStore(filepath.Join(p.dir, "checkpoints"))
		if err != nil {
			return nil, err
		}
		fs.SetRetain(2)
		p.store = fs
		if o.traced {
			p.timed = &timedStore{inner: fs, clk: clk, tr: tr, parent: p.span, saveDelay: o.saveDelay}
			p.store = p.timed
		}
		// A checkpoint every quarter of the measured time at the paced rate:
		// 2 s of records in a full-length run.
		p.checkpointEvery = int(rate * o.measure.Seconds() / 4)
	}
	if w.serve {
		srv, err := newServeEnv(p)
		if err != nil {
			return nil, err
		}
		p.srv = srv
	}
	switch kind {
	case saturation:
		p.feed.warm, p.feed.measure = o.warm, o.measure
		if p.srv != nil {
			p.feed.credit = p.srv.credit
		}
	case paced:
		pc := newPacer(clk, rate, clk.Now(), o.warm, o.measure)
		p.feed.pacer, p.col.pacer = pc, pc
		if w.durable {
			total := float64(pc.dueBy(pc.stop))
			for _, at := range killPoints {
				p.feed.kills = append(p.feed.kills, int64(at*total))
			}
		}
		if p.srv != nil {
			p.srv.pacer = pc
		}
	}
	if p.srv != nil {
		p.srv.start()
	}
	return p, nil
}

// killPoints are where ckpt-recover's paced phase fails its job, as shares of
// the phase's records: fixed record indices, so every run kills at the same
// places in the stream.
var killPoints = []float64{0.22, 0.48, 0.74}

// run executes the phase's job to the end of the stream and checks its
// output. A traced phase that measures adds its per-layer sums to total.
func (p *phase) run(ctx context.Context, setupFrom time.Duration, total *layerCounts) (*phaseResult, error) {
	defer p.close()
	res := &phaseResult{feed: p.feed}
	stopSampler := p.sample()
	runFrom := p.clk.Now()
	var err error
	if len(p.feed.kills) > 0 {
		err = p.supervise(ctx)
	} else {
		var job *core.Job
		if job, err = p.build(); err == nil {
			p.attach(job)
			err = job.Run(ctx)
		}
	}
	res.wall = p.clk.Now() - runFrom
	depth := stopSampler()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", p.o.w.name, p.kind, err)
	}
	f := p.feed
	res.setup = f.firstRecord - setupFrom
	res.throughput = f.throughput()
	res.verdict, res.latency = p.col.verify(p.o.w.windowMs, f.admitted)
	res.sustained = true
	if f.pacer != nil {
		res.sustained = f.pacer.sustained() && !f.rec.pending
		for i := range f.rec.catch {
			res.recovered = append(res.recovered, f.rec.restart[i]+f.rec.restore[i]+f.rec.catch[i])
		}
	}
	if p.srv != nil {
		sr, err := p.srv.finish(f.admitted)
		if err != nil {
			return nil, err
		}
		res.serve = sr
		res.verdict.add(sr.verdict)
		if p.kind == paced {
			res.latency = sr.latency
		}
	}
	if !res.sustained {
		// The offered rate was not sustained: nothing this phase measured
		// stands, so every operation counts as failed.
		res.verdict.failed = res.verdict.attempted
	}
	if p.o.traced && p.kind != probe {
		p.addLayers(total, res, depth)
		if p.kind == saturation { // the bottleneck is read off this phase alone
			res.layers = newLayerCounts()
			p.addLayers(res.layers, res, depth)
		}
	}
	p.tr.end(p.span)
	// The result outlives the phase; the input ring must not.
	f.ring = nil
	return res, nil
}

// attach makes job the live incarnation: the one kills aim at, the sampler
// reads and whose registry is kept.
func (p *phase) attach(job *core.Job) {
	p.feed.fail = job.Fail
	p.feed.consumed = job.Metrics().Counter("node." + firstOperator + ".in").Value
	p.live.Store(job)
	p.mu.Lock()
	p.jobs = append(p.jobs, job.Metrics())
	p.mu.Unlock()
}

// supervise runs the job under ha.RunSupervised, which rebuilds it from the
// latest completed checkpoint after each injected kill.
func (p *phase) supervise(ctx context.Context) error {
	incarnation := 0
	fac := func(sink *core.CollectSink, _ core.SnapshotStore) (*core.Job, error) {
		p.col.run++
		p.col.haSink = sink.Factory()()
		return p.build()
	}
	_, _, err := ha.RunSupervised(ctx, fac, p.store, ha.RestartStrategy{MaxRestarts: len(p.feed.kills) + 1},
		func(_ int, job *core.Job) {
			p.tr.end(incarnation)
			incarnation = p.tr.begin("incarnation", p.span)
			if r := &p.feed.rec; r.pending {
				p.tr.add("recovery.restart", p.span, r.killAt, p.clk.Now())
			}
			p.attach(job)
			p.feed.started()
		})
	p.tr.end(incarnation)
	return err
}

// close releases what the phase holds outside the job.
func (p *phase) close() {
	if p.srv != nil {
		p.srv.close()
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// sample starts the traced run's sampler: every 10 ms it reads the queue
// depths the engine publishes. The returned function stops it and returns
// what it saw.
func (p *phase) sample() func() depthSample {
	if !p.o.traced {
		return func() depthSample { return depthSample{} }
	}
	stop := make(chan struct{})
	done := make(chan depthSample)
	go func() {
		var d depthSample
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- d
				return
			case <-tick.C:
			}
			if job := p.live.Load(); job != nil {
				for _, n := range job.Describe().Nodes {
					for _, in := range n.Instances {
						if in.QueueCapacity > 0 { // sources have no inbox
							d.queueSum += int64(in.QueueDepth)
							d.queueN++
						}
					}
				}
			}
			if p.srv != nil {
				for _, s := range p.srv.srv.Subscribers() {
					if int64(s.QueueDepth) > d.subscriberMax {
						d.subscriberMax = int64(s.QueueDepth)
					}
				}
			}
		}
	}()
	return func() depthSample {
		close(stop)
		return <-done
	}
}

// depthSample is what the sampler saw of the engine's queues.
type depthSample struct {
	queueSum, queueN int64 // operator inboxes, in messages
	subscriberMax    int64 // deepest subscription queue, in records
}
