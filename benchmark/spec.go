package main

import "repro/internal/core"

// The sizing below is fixed for the two-core shared box the benchmark is
// judged on; it is never derived from the machine the benchmark runs on.
const (
	procs       = 2         // GOMAXPROCS of a benchmark process
	parallelism = 2         // operator parallelism of every job
	batchSize   = 64        // core.Config.MaxBatchSize
	ringRecords = 1_000_000 // events in the pre-built input ring
)

// engineConfig is the one engine configuration every workload runs under:
// batched exchange at parallelism 2, everything else the engine's default. It
// sets none of the opt-in fast-path flags; a fast path counts here once it is
// what the engine does without a flag.
func engineConfig(name string) core.Config {
	return core.Config{Name: name, MaxBatchSize: batchSize, DefaultParallelism: parallelism}
}

// workload is one set of inputs and the job they run through.
type workload struct {
	name string
	why  string
	// rate is the paced phase's fixed offered load in records per second,
	// recorded once from the seed's saturation throughput (README.md).
	rate     float64
	keys     int
	bursty   bool  // zipf(1.2) keys in runs instead of i.i.d. uniform keys
	windowMs int64 // tumbling window length; 0 for the stateless pipeline
	durable  bool  // LSM state, file snapshot store, checkpoints, kills
	serve    bool  // source tapped into a serve.Server with TCP subscribers
}

var workloads = []workload{
	{
		name: "window-uniform", rate: 1_300_000, keys: 4096, windowMs: 1000,
		why: "keyed 1 s tumbling sum over 4096 uniform keys, paced at 1300000 rec/s: window operator, state and timers dominate; the no-change control for checkpoint, serve and key-run work",
	},
	{
		name: "window-bursty", rate: 2_700_000, keys: 4096, windowMs: 1000, bursty: true,
		why: "same job, zipf(1.2) keys in runs of mean 16, paced at 2700000 rec/s: key-run routing, run-amortised window execution and partition skew engage here and not on window-uniform",
	},
	{
		name: "stateless-hops", rate: 1_700_000, keys: 4096,
		why: "map, filter, keyBy, map over rebalance, forward and hash exchanges, empty operators, paced at 1700000 rec/s: source admission, exchange and sink are nearly all the work",
	},
	{
		name: "ckpt-recover", rate: 1_200, keys: 200_000, windowMs: 10, durable: true,
		why: "200000-key windows on LSM state, aligned checkpoints to a file store, three kills under supervision, paced at 1200 rec/s: state backend, checkpoint and restore dominate",
	},
	{
		name: "serve-fanout", rate: 800, keys: 4096, windowMs: 1000, serve: true,
		why: "window-uniform tapped into a serve.Server with 8 TCP subscriptions and point reads, paced at 800 rec/s: hub fan-out, per-subscriber executors and JSON framing beside the pipeline",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the engine would see. Every workload
// reports every one of them from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// operatorNodes are the operator nodes a workload's job may contain; a node
// a workload does not have reports zero.
var operatorNodes = []string{"window", "map1", "filter", "map2", "tap", "publish"}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"source.records", "count"},
		{"source.throughput_rps", "1/s"},
		{"source.collect_busy_s", "s"},
		{"source.late_p99_ms", "ms"},
		{"source.backlog_max_records", "count"},
		{"exchange.blocked_s", "s"},
		{"exchange.batch_fill", "ratio"},
		{"exchange.flush_ctl_ratio", "ratio"},
		{"exchange.hop_p50_us", "us"},
		{"exchange.queue_depth_mean", "count"},
	}
	for _, n := range operatorNodes {
		m = append(m,
			metricDef{"operator." + n + ".in", "count"},
			metricDef{"operator." + n + ".out", "count"},
			metricDef{"operator." + n + ".busy_s", "s"})
	}
	return append(m,
		metricDef{"state.gets", "count"},
		metricDef{"state.puts", "count"},
		metricDef{"state.busy_s", "s"},
		metricDef{"state.snapshot_bytes", "bytes"},
		metricDef{"checkpoint.count", "count"},
		metricDef{"checkpoint.duration_mean_ms", "ms"},
		metricDef{"checkpoint.duration_max_ms", "ms"},
		metricDef{"checkpoint.align_ms", "ms"},
		metricDef{"checkpoint.serialize_ms", "ms"},
		metricDef{"checkpoint.saves", "count"},
		metricDef{"checkpoint.save_busy_s", "s"},
		metricDef{"checkpoint.bytes", "bytes"},
		metricDef{"checkpoint.complete_busy_s", "s"},
		metricDef{"checkpoint.aborted", "count"},
		metricDef{"checkpoint.save_retries", "count"},
		metricDef{"recovery.caught_up_s", "s"},
		metricDef{"recovery.restart_s", "s"},
		metricDef{"recovery.restore_s", "s"},
		metricDef{"recovery.catchup_s", "s"},
		metricDef{"recovery.load_busy_s", "s"},
		metricDef{"recovery.replayed_records", "count"},
		metricDef{"serve.credit_wait_s", "s"},
		metricDef{"serve.delivered", "count"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.shed_ratio", "ratio"},
		metricDef{"serve.queue_depth_max", "count"},
		metricDef{"serve.subscribe_rtt_ms", "ms"},
		metricDef{"serve.get_p50_ms", "ms"},
		metricDef{"serve.frames_per_s", "1/s"},
		metricDef{"serve.identical_subs", "count"},
		metricDef{"sink.results", "count"},
		metricDef{"sink.busy_s", "s"},
		metricDef{"proc.cpu_s", "s"},
		metricDef{"proc.allocs_per_record", "count"},
		metricDef{"proc.gc_pause_ms", "ms"},
	)
}()
