// Command observe runs an instrumented demo pipeline and serves the
// observability endpoints while it executes:
//
//	/metrics  Prometheus text format (throughput, latency, watermark lag,
//	          queue depth, backpressure, checkpoint metrics)
//	/jobs     topology + per-instance runtime state as JSON
//	/traces   recent spans (checkpoints, barrier alignment, operator batches)
//
// The pipeline is generator -> keyed windowed count -> sink plus a CEP
// pattern branch, with latency markers and periodic checkpoints enabled, so
// every metric family the observability layer exports is live. Run with a
// long -duration and point a browser or Prometheus scraper at the address.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/cep"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/elastic"
	"repro/internal/gen"
	"repro/internal/load"
	"repro/internal/obsv"
	"repro/internal/window"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "introspection server address (host:port, port 0 picks a free one)")
	n := flag.Int("n", 200_000, "number of generated transactions")
	markerEvery := flag.Int("marker-every", 64, "inject a latency marker every N source records")
	checkpointEvery := flag.Int("checkpoint-every", 10_000, "trigger a checkpoint every N source records")
	duration := flag.Duration("duration", 0, "stop after this long (0 = run the workload to completion)")
	dump := flag.Bool("dump", true, "fetch and print /metrics once the job finishes")
	batch := flag.Int("batch", 0, "exchange batch capacity in records (0/1 = one record per batch)")
	chaosMode := flag.Bool("chaos", false, "inject snapshot-store faults (every 3rd save fails with a torn write, plus latency) so the abort/retry metrics go live")
	elasticMode := flag.Bool("elastic", false, "run the elastic demo instead: a rate ramp drives the DS2 policy through live scale-out and scale-in, with rescale metrics on /metrics and /jobs")
	flag.Parse()

	if *elasticMode {
		runElasticDemo(*addr)
		return
	}

	var store core.SnapshotStore = core.NewMemorySnapshotStore()
	var faulty *chaos.FaultyStore
	if *chaosMode {
		faulty = chaos.Wrap(store, chaos.FaultPlan{
			FailSaveEvery: 3,
			TornSave:      true,
			SaveLatency:   200 * time.Microsecond,
		})
		store = faulty
	}

	tracer := obsv.NewTracer(obsv.DefaultTraceCapacity)
	b := core.NewBuilder(core.Config{
		Name:                  "observe-demo",
		Instrument:            true,
		LatencyMarkerInterval: *markerEvery,
		Tracer:                tracer,
		SnapshotStore:         store,
		CheckpointEvery:       *checkpointEvery,
		ChannelCapacity:       64,
		MaxBatchSize:          *batch,
	})

	spec := gen.FraudSpec(*n, 50, 0.05, 7)
	txns := b.Source("txns", gen.SourceFactory(spec), core.WithBoundedDisorder(0))
	keyed := txns.KeyBy(func(e core.Event) string { return e.Value.(gen.Transaction).Card })

	counts := core.NewCollectSink()
	window.Apply(keyed, "win-1s", window.NewTumbling(1_000), window.CountAggregate()).
		Sink("counts", counts.Factory())

	small := func(e core.Event) bool { return e.Value.(gen.Transaction).Amount < 100 }
	large := func(e core.Event) bool { return e.Value.(gen.Transaction).Amount >= 500 }
	pattern := cep.Begin("p1", small).FollowedBy("hit", large).Within(60_000).MustBuild()
	alerts := core.NewCollectSink()
	cep.PatternStream(keyed, "fraud", pattern, func(card string, m cep.Match, emit func(core.Event)) {
		emit(core.Event{Key: card, Timestamp: m.End, Value: "alert"})
	}, cep.SkipPastLastEvent()).Sink("alerts", alerts.Factory())

	job, err := b.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.Exit(1)
	}
	srv, err := job.ServeIntrospection(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("observability server on http://%s  (/metrics /jobs /traces)\n", srv.Addr())

	ctx := context.Background()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	start := time.Now()
	if err := job.Run(ctx); err != nil && err != context.DeadlineExceeded {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("job finished in %v: %d window results, %d alerts, last checkpoint %d\n",
		elapsed.Round(time.Millisecond), counts.Len(), alerts.Len(), job.LastCheckpoint())
	if faulty != nil {
		st := faulty.Stats()
		fmt.Printf("chaos: %d/%d saves failed (%d torn), %d checkpoints aborted, %d save failures post-retry — job survived in place\n",
			st.SaveFaults, st.Saves, st.TornWrites, job.AbortedCheckpoints(), job.SnapshotSaveFailures())
	}
	lat := job.Metrics().Histogram("node.counts.latency_ns")
	if lat.Count() > 0 {
		fmt.Printf("end-to-end marker latency at sink: p50=%v p99=%v (%d markers)\n",
			time.Duration(lat.Quantile(0.5)), time.Duration(lat.Quantile(0.99)), lat.Count())
	}

	if *dump {
		// Scrape our own endpoint so the HTTP path is exercised end to end.
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			os.Exit(1)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
			os.Exit(1)
		}
		fmt.Printf("--- /metrics (%d bytes) ---\n%s", len(body), body)
	}
}

// runElasticDemo drives a pipeline through a load ramp under the elastic
// policy: a gentle phase (1 instance suffices), a burst (backpressure
// pushes corrected demand past one instance's true rate, the DS2 policy
// scales out via stop-with-savepoint -> rescale -> restore), and a cool-down
// (hysteresis then scales back in). While it runs, /metrics carries the
// policy's samples (elastic.*) and the rescale lineage (lineage.*), and
// /jobs the lineage counters.
func runElasticDemo(addr string) {
	const n = 4500
	events := make([]core.Event, n)
	for i := range events {
		events[i] = core.Event{
			Key:       fmt.Sprintf("k%d", i%5),
			Timestamp: int64(i * 10),
			Value:     int64(i),
		}
	}
	pace := func(i int) time.Duration {
		if i < n/3 || i >= 2*n/3 {
			return time.Millisecond // gentle offered load
		}
		return 0 // burst: as fast as the pipeline admits
	}

	tracer := obsv.NewTracer(obsv.DefaultTraceCapacity)
	build := func(par int, sink *core.CollectSink, store core.SnapshotStore) (*core.Job, error) {
		b := core.NewBuilder(core.Config{
			Name:              "elastic-demo",
			Instrument:        true,
			Tracer:            tracer,
			SnapshotStore:     store,
			CheckpointEvery:   500,
			ChannelCapacity:   32,
			WatermarkInterval: 1,
		})
		// ~150µs of simulated work per record bounds one instance's true
		// processing rate, so the burst genuinely needs more instances.
		work := core.MapFunc(func(e core.Event, ctx core.Context) error {
			time.Sleep(150 * time.Microsecond)
			ctx.Emit(e)
			return nil
		})
		keyed := b.Source("src", core.NewPacedSourceFactory(events, pace),
			core.WithParallelism(1), core.WithBoundedDisorder(0)).
			KeyBy(func(e core.Event) string { return e.Key }).
			ProcessWith("work", work, par).
			KeyBy(func(e core.Event) string { return e.Key })
		window.Apply(keyed, "win-1s", window.NewTumbling(1_000), window.CountAggregate()).
			Sink("out", sink.Factory())
		return b.Build()
	}

	sup, err := elastic.New(elastic.Config{
		Node:               "work",
		Upstream:           "src",
		Build:              build,
		Store:              core.NewMemorySnapshotStore(),
		Decide:             elastic.FromPolicy(load.NewScalingPolicy(0.8, 1, 4)),
		InitialParallelism: 1,
		SampleEvery:        100 * time.Millisecond,
		Tracer:             tracer,
		Logger:             os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elastic:", err)
		os.Exit(1)
	}
	srv := obsv.NewServer(sup.Metrics(), tracer, sup.Describe)
	if err := srv.Start(addr); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("elastic demo on http://%s  (/metrics /jobs /traces)\n", srv.Addr())

	start := time.Now()
	out, rep, err := sup.Run(context.Background())
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	fmt.Printf("stream drained in %v: %d exactly-once results (%d duplicate emissions suppressed), %d incarnations, final parallelism %d\n",
		time.Since(start).Round(time.Millisecond), rep.Output, rep.Duplicates, rep.Attempts, rep.FinalParallelism)
	_ = out
	for i, ev := range rep.Rescales {
		fmt.Printf("rescale %d: %d -> %d  downtime=%v offline=%v state=%dB timers=%d (savepoint %d -> checkpoint %d)\n",
			i+1, ev.From, ev.To, ev.Downtime.Round(time.Millisecond), ev.Offline.Round(time.Millisecond),
			ev.StateBytes, ev.Timers, ev.SavepointID, ev.RescaledID)
	}
	if len(rep.Rescales) == 0 {
		fmt.Println("no rescale triggered — try a slower machine or a longer burst")
	}
}
