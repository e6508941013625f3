// Command benchmark is the repository's benchmark: five long-running
// workloads driven through the engine's public API, each verified against a
// single-threaded reference, reporting end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
//
//	go run ./benchmark                               every workload, end to end
//	go run ./benchmark -trace 1                      ... and the per-layer view
//	go run ./benchmark -workload ckpt-recover        one workload, one JSON line last
//	go run ./benchmark -check-repeat 2               run-to-run spread against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		name   = flag.String("workload", "", "run this workload in this process and print its result as one JSON object on the last line; empty runs every workload, each in a child process")
		seed   = flag.Int64("seed", 1, "seed of the generated input")
		secs   = flag.Int("seconds", defaultSeconds, "measured seconds per workload, half in each phase")
		trace  = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics; with every workload, runs both")
		repeat = flag.Int("check-repeat", 0, "run the whole set this many times and compare each metric's spread with its bound")
		outDir = flag.String("out", "benchmark/out", "directory for trace files and scratch state")
	)
	flag.Parse()
	if flag.NArg() > 0 || *secs < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *name != "":
		err = runChild(*name, *seed, *secs, *trace == 1, *outDir)
	case *repeat > 0:
		err = checkRepeat(*repeat, *seed, *secs)
	default:
		_, err = runAll(*seed, *secs, *trace == 1, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds: 8 s measured per phase.
const defaultSeconds = 16

// optsFor sizes one workload run: the measured time is split evenly between
// the saturation and the paced phase, each preceded by a warm-up a fifth as
// long (2 s before 10 s in the issue's full-length shape).
func optsFor(w workload, seed int64, seconds int, traced bool, outDir string) runOpts {
	measure := time.Duration(seconds) * time.Second / 2
	return runOpts{w: w, seed: seed, measure: measure, warm: measure / 5, traced: traced,
		outDir: outDir, ring: ringRecords, rateScale: 1}
}

// runChild runs one workload in this process: the contract a driver calls.
func runChild(name string, seed int64, seconds int, traced bool, outDir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(procs)
	res, err := runWorkload(context.Background(), optsFor(w, seed, seconds, traced, outDir))
	if err != nil {
		return err
	}
	res.report(os.Stdout)
	line, err := json.Marshal(res.output())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runResult is one workload run: three phases and the process around them.
type runResult struct {
	o      runOpts
	phases map[phaseKind]*phaseResult // the last phase of each kind
	setups []time.Duration
	proc   procStats
	layers *layerCounts // traced: saturation and paced summed
	trace  string       // traced: the file written
	// bottleneck is the saturation phase's busiest node, see
	// layerCounts.bottleneck.
	bottleneck                           string
	busy, upstreamBlocked, sourceBlocked float64
}

// phaseOrder is what a workload run does: probes that only set up, then the
// saturation phase and the paced phase. Every phase does its own set-up, so
// a run yields seven set-up samples and reports their median.
var phaseOrder = []phaseKind{probe, probe, probe, probe, probe, saturation, paced}

// runWorkload runs a workload's phases in phaseOrder.
func runWorkload(ctx context.Context, o runOpts) (*runResult, error) {
	clk := wallClock{origin: time.Now()}
	var tr *tracer
	if o.traced {
		tr = &tracer{clk: clk}
	}
	root := tr.begin("run", 0)
	res := &runResult{o: o, phases: map[phaseKind]*phaseResult{}, layers: newLayerCounts()}
	before := readProc()
	var spent *ring
	for _, kind := range phaseOrder {
		from := clk.Now()
		p, err := newPhase(o, kind, clk, tr, root, spent)
		if err != nil {
			return nil, err
		}
		spent = p.ring
		pr, err := p.run(ctx, from, res.layers)
		if err != nil {
			return nil, err
		}
		res.phases[kind] = pr
		res.setups = append(res.setups, pr.setup)
		// Collect the phase's input and results now, so that the peak
		// resident size does not depend on when the collector happens to run.
		runtime.GC()
	}
	res.proc = readProc().since(before)
	tr.end(root)
	if o.traced {
		res.bottleneck, res.busy, res.upstreamBlocked, res.sourceBlocked =
			res.phases[saturation].layers.bottleneck(append([]string{"sink"}, operatorNodes...))
		path, err := tr.write(o.outDir, traceFile{Workload: o.w.name,
			RunID: fmt.Sprintf("%s-seed%d-%d", o.w.name, o.seed, os.Getpid()), Seed: o.seed,
			Bottleneck: res.bottleneck, Counters: res.perLayer()})
		if err != nil {
			return nil, err
		}
		res.trace = path
	}
	return res, nil
}

// procStats is what the process used.
type procStats struct {
	cpu       time.Duration
	mallocs   uint64
	gcPause   uint64 // ns
	maxRSSKiB int64
}

func readProc() procStats {
	var ru syscall.Rusage
	var p procStats
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.maxRSSKiB = int64(ru.Maxrss)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.gcPause = ms.Mallocs, ms.PauseTotalNs
	return p
}

func (p procStats) since(o procStats) procStats {
	return procStats{cpu: p.cpu - o.cpu, mallocs: p.mallocs - o.mallocs, gcPause: p.gcPause - o.gcPause, maxRSSKiB: p.maxRSSKiB}
}

// median of a non-empty sample.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// endToEnd returns the run's end-to-end metrics.
func (r *runResult) endToEnd() map[string]float64 {
	lat := r.phases[paced].latency
	return map[string]float64{
		"setup_s":        medianDuration(r.setups),
		"throughput_rps": r.phases[saturation].throughput,
		"latency_p50_ms": millis(lat.quantile(0.50)),
		"latency_p99_ms": millis(lat.quantile(0.99)),
		"peak_rss_mb":    float64(r.proc.maxRSSKiB) / 1024,
	}
}

// perLayer returns the traced run's per-layer metrics.
func (r *runResult) perLayer() map[string]float64 {
	m := r.layers.metrics(r.proc)
	m["source.throughput_rps"] = r.phases[saturation].throughput
	return m
}

// verdict sums the checks of the measured phases.
func (r *runResult) verdict() verdict {
	v := r.phases[saturation].verdict
	v.add(r.phases[paced].verdict)
	return v
}

// output is the JSON object a driver reads from the last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) output() output {
	v := r.verdict()
	out := output{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, r.endToEnd
	if r.o.traced {
		defs, values = perLayer, r.perLayer
	}
	vals := values()
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
