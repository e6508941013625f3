package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// layerCounts is what traced phases measured per layer: plain sums, so two
// phases (and all incarnations within one) add up before ratios are taken.
type layerCounts struct {
	wall time.Duration // the job's run time, summed over phases

	counter map[string]int64 // engine counters, summed by name
	histSum map[string]int64 // engine histograms: sum, count and max by name
	histN   map[string]int64
	histMax map[string]int64
	hops    map[int64]int64 // marker hop_ns of every edge: bucket bound -> count

	sourceRecords    int64
	collectBusy      time.Duration
	creditWait       time.Duration
	late             *hist
	backlogMax       int64
	depth            depthSample
	state            stateCounts
	saveBusy         time.Duration
	loadBusy         time.Duration
	completeBusy     time.Duration
	savedBytes       int64
	saves            int64
	recovered        []time.Duration
	restart, restore []time.Duration
	catch            []time.Duration
	replayed         int64
	serve            *serveResult
	serveWall        time.Duration
	sinkResults      int64
	sinkBusy         time.Duration
}

func newLayerCounts() *layerCounts {
	return &layerCounts{counter: map[string]int64{}, histSum: map[string]int64{}, histN: map[string]int64{},
		histMax: map[string]int64{}, hops: map[int64]int64{}, late: newHist()}
}

// addLayers adds a finished traced phase's per-layer sums to l: from the
// registries of its job's incarnations, from the benchmark's decorators and
// from the generator and consumer themselves.
func (p *phase) addLayers(l *layerCounts, res *phaseResult, depth depthSample) {
	l.wall += res.wall
	for _, reg := range p.jobs {
		reg.Each(metrics.Visitor{
			Counter: func(name string, c *metrics.Counter) { l.counter[name] += c.Value() },
			Histogram: func(name string, h *metrics.Histogram) {
				s := h.Export()
				l.histSum[name] += s.Sum
				l.histN[name] += s.Count
				if s.Max > l.histMax[name] {
					l.histMax[name] = s.Max
				}
				if strings.HasSuffix(name, ".hop_ns") {
					for _, b := range s.Buckets {
						l.hops[b.UpperBound] += b.Count
					}
				}
			},
		})
	}
	f := p.feed
	l.sourceRecords += f.admitted + f.rec.replayed
	l.collectBusy += f.collectBusy
	l.creditWait += f.creditWait
	if f.pacer != nil {
		l.late.merge(f.pacer.late)
		l.backlogMax = max(l.backlogMax, f.pacer.maxBacklog)
	}
	l.depth.queueSum += depth.queueSum
	l.depth.queueN += depth.queueN
	l.depth.subscriberMax = max(l.depth.subscriberMax, depth.subscriberMax)
	for _, b := range p.backends {
		l.state.gets += b.gets
		l.state.puts += b.puts
		l.state.busy += b.busy
		l.state.snapshotBytes += b.snapshotBytes
	}
	if p.timed != nil {
		l.saveBusy += time.Duration(p.timed.saveBusy.Load())
		l.loadBusy += time.Duration(p.timed.loadBusy.Load())
		l.completeBusy += time.Duration(p.timed.completeBusy.Load())
		l.savedBytes += p.timed.savedBytes.Load()
		l.saves += p.timed.saves.Load()
	}
	l.recovered = append(l.recovered, res.recovered...)
	l.restart = append(l.restart, f.rec.restart...)
	l.restore = append(l.restore, f.rec.restore...)
	l.catch = append(l.catch, f.rec.catch...)
	l.replayed += f.rec.replayed
	if sr := res.serve; sr != nil {
		if l.serve == nil {
			l.serve = &serveResult{subscribeRTT: newHist(), gets: newHist()}
		}
		l.serve.delivered += sr.delivered
		l.serve.shed += sr.shed
		l.serve.frames += sr.frames
		l.serve.identical = sr.identical
		l.serve.subscribeRTT.merge(sr.subscribeRTT)
		l.serve.gets.merge(sr.gets)
		l.serveWall += res.wall
	}
	l.sinkResults += p.col.calls
	l.sinkBusy += p.col.busy
}

// sumPrefixed adds up every value of m whose name has the prefix and suffix.
func sumPrefixed(m map[string]int64, prefix, suffix string) int64 {
	var n int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func millis(ns float64) float64 { return ns / 1e6 }

// medianDuration is the median of ds in seconds, zero for none.
func medianDuration(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	secs := make([]float64, len(ds))
	for i, d := range ds {
		secs[i] = d.Seconds()
	}
	return median(secs)
}

// hopP50 is the median marker hop time in ns over every edge, read from the
// engine's log2 buckets (so it is quantized to a power of two).
func (l *layerCounts) hopP50() int64 {
	bounds := make([]int64, 0, len(l.hops))
	var total int64
	for b, c := range l.hops {
		bounds = append(bounds, b)
		total += c
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	var seen int64
	for _, b := range bounds {
		if seen += l.hops[b]; seen*2 >= total {
			return b
		}
	}
	return 0
}

// nodeBusy is the summed busy time of a node's instances.
func (l *layerCounts) nodeBusy(node string) time.Duration {
	return time.Duration(sumPrefixed(l.counter, "node."+node+".", ".busy_ns"))
}

// metrics renders the sums as the per-layer metrics, every name in perLayer.
func (l *layerCounts) metrics(p procStats) map[string]float64 {
	m := map[string]float64{
		"source.records":             float64(l.sourceRecords),
		"source.collect_busy_s":      l.collectBusy.Seconds(),
		"source.late_p99_ms":         millis(float64(l.late.quantile(0.99))),
		"source.backlog_max_records": float64(l.backlogMax),

		"exchange.blocked_s": seconds(sumPrefixed(l.histSum, "edge.", ".blocked_ns")),
		"exchange.batch_fill": ratio(float64(sumPrefixed(l.histSum, "edge.", ".batch_size")),
			float64(sumPrefixed(l.histN, "edge.", ".batch_size"))*batchSize),
		"exchange.flush_ctl_ratio": ratio(float64(sumPrefixed(l.counter, "edge.", ".flush_ctl")),
			float64(sumPrefixed(l.counter, "edge.", ".flush_ctl")+sumPrefixed(l.counter, "edge.", ".flush_size"))),
		"exchange.hop_p50_us":       float64(l.hopP50()) / 1e3,
		"exchange.queue_depth_mean": ratio(float64(l.depth.queueSum), float64(l.depth.queueN)),

		"state.gets":           float64(l.state.gets),
		"state.puts":           float64(l.state.puts),
		"state.busy_s":         l.state.busy.Seconds(),
		"state.snapshot_bytes": float64(l.state.snapshotBytes),

		"checkpoint.count": float64(l.counter["checkpoint.completed"]),
		"checkpoint.duration_mean_ms": millis(ratio(float64(l.histSum["checkpoint.duration_ns"]),
			float64(l.histN["checkpoint.duration_ns"]))),
		"checkpoint.duration_max_ms": millis(float64(l.histMax["checkpoint.duration_ns"])),
		"checkpoint.align_ms":        millis(float64(sumPrefixed(l.histSum, "node.", ".align_ns"))),
		"checkpoint.serialize_ms":    millis(float64(sumPrefixed(l.histSum, "node.", ".snapshot_ns"))),
		"checkpoint.saves":           float64(l.saves),
		"checkpoint.save_busy_s":     l.saveBusy.Seconds(),
		"checkpoint.bytes":           float64(l.savedBytes),
		"checkpoint.complete_busy_s": l.completeBusy.Seconds(),
		"checkpoint.aborted":         float64(l.counter["checkpoint.aborted"]),
		"checkpoint.save_retries":    float64(l.counter["checkpoint.save_retries"]),

		"recovery.caught_up_s":      medianDuration(l.recovered),
		"recovery.restart_s":        medianDuration(l.restart),
		"recovery.restore_s":        medianDuration(l.restore),
		"recovery.catchup_s":        medianDuration(l.catch),
		"recovery.load_busy_s":      l.loadBusy.Seconds(),
		"recovery.replayed_records": float64(l.replayed),

		"sink.results": float64(l.sinkResults),
		"sink.busy_s":  l.sinkBusy.Seconds(),

		"proc.cpu_s":             p.cpu.Seconds(),
		"proc.allocs_per_record": ratio(float64(p.mallocs), float64(l.sourceRecords)),
		"proc.gc_pause_ms":       millis(float64(p.gcPause)),
	}
	for _, n := range operatorNodes {
		m["operator."+n+".in"] = float64(l.counter["node."+n+".in"])
		m["operator."+n+".out"] = float64(l.counter["node."+n+".out"])
		m["operator."+n+".busy_s"] = l.nodeBusy(n).Seconds()
	}
	s := l.serve
	if s == nil {
		s = &serveResult{subscribeRTT: newHist(), gets: newHist()}
	}
	m["serve.credit_wait_s"] = l.creditWait.Seconds()
	m["serve.delivered"] = float64(s.delivered)
	m["serve.shed"] = float64(s.shed)
	m["serve.shed_ratio"] = ratio(float64(s.shed), float64(s.shed+s.delivered))
	m["serve.queue_depth_max"] = float64(l.depth.subscriberMax)
	m["serve.subscribe_rtt_ms"] = millis(s.subscribeRTT.mean())
	m["serve.get_p50_ms"] = millis(float64(s.gets.quantile(0.5)))
	m["serve.frames_per_s"] = ratio(float64(s.frames), l.serveWall.Seconds())
	m["serve.identical_subs"] = float64(s.identical)
	return m
}

// bottleneck names the operator node with the largest busy share of the
// saturation phase — the node that is busy while what feeds it is blocked —
// with that share, the share of time its inbound edges spent blocked, and the
// share of time the source spent inside CollectBatch.
func (l *layerCounts) bottleneck(nodes []string) (name string, busy, upstreamBlocked, sourceBlocked float64) {
	wall := l.wall.Seconds()
	for _, n := range nodes {
		instances := 0
		for k := range l.counter {
			if strings.HasPrefix(k, "node."+n+".") && strings.HasSuffix(k, ".busy_ns") {
				instances++
			}
		}
		if instances == 0 {
			continue
		}
		if share := ratio(l.nodeBusy(n).Seconds(), wall*float64(instances)); share > busy {
			name, busy = n, share
		}
	}
	if name != "" {
		upstreamBlocked = ratio(seconds(sumPrefixed(l.histSum, "edge.", "."+name+".blocked_ns")), wall)
	}
	return name, busy, upstreamBlocked, ratio(l.collectBusy.Seconds(), wall)
}
