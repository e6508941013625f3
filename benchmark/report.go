package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// report prints the run for a reader: every metric by name with its unit,
// and what stands behind it.
func (r *runResult) report(w io.Writer) {
	sat, pac := r.phases[saturation], r.phases[paced]
	v := r.verdict()
	fmt.Fprintf(w, "%s  seed=%d traced=%v  %.1fs+%.1fs per phase\n", r.o.w.name, r.o.seed, r.o.traced,
		r.o.warm.Seconds(), r.o.measure.Seconds())
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  [%s]\n", v.attempted, v.failed, v)
	if !r.o.traced {
		e := r.endToEnd()
		lat := pac.latency
		fmt.Fprintf(w, "  %-16s %12.4f s     median of %d set-ups (%s)\n", "setup_s", e["setup_s"], len(r.setups), durations(r.setups))
		fmt.Fprintf(w, "  %-16s %12.0f 1/s   saturation: %d records admitted in the measured %.2fs\n", "throughput_rps",
			e["throughput_rps"], sat.feed.to.next-sat.feed.from.next, (sat.feed.to.at - sat.feed.from.at).Seconds())
		fmt.Fprintf(w, "  %-16s %12.4f ms    paced at %.0f rec/s: median of %d slices, %d samples\n", "latency_p50_ms", e["latency_p50_ms"],
			r.o.w.rate*r.o.rateScale, measureSlices, lat.all.count())
		fmt.Fprintf(w, "  %-16s %12.4f ms    over all samples (not gated): p50 %.3f, p99 %.3f, p99.9 %.3f, max %.3f ms\n", "latency_p99_ms", e["latency_p99_ms"],
			millis(float64(lat.all.quantile(0.5))), millis(float64(lat.all.quantile(0.99))),
			millis(float64(lat.all.quantile(0.999))), millis(float64(lat.all.maxValue())))
		fmt.Fprintf(w, "  %-16s %12.1f MB\n", "peak_rss_mb", e["peak_rss_mb"])
		pc := pac.feed.pacer
		fmt.Fprintf(w, "  sustained=%v  generator late p99 %.3f ms, at end %.3f ms, max backlog %d records\n",
			pac.sustained, millis(float64(pc.late.quantile(0.99))), millis(float64(pc.endLate)), pc.maxBacklog)
		if len(pac.recovered) > 0 {
			fmt.Fprintf(w, "  %-16s %12.4f s     kill to caught up, median of %d kills (%s); %d records replayed\n",
				"recovery_s", medianDuration(pac.recovered), len(pac.recovered), durations(pac.recovered), pac.feed.rec.replayed)
		}
		return
	}
	m := r.perLayer()
	for _, d := range perLayer {
		if m[d.name] != 0 {
			fmt.Fprintf(w, "  %-30s %16.4f %s\n", d.name, m[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "  bottleneck at saturation: %s, busy %.0f%% of its instances' time; its inbound edges blocked %.0f%%, the source inside CollectBatch %.0f%% of the phase\n",
		r.bottleneck, 100*r.busy, 100*r.upstreamBlocked, 100*r.sourceBlocked)
	wall := r.layers.wall.Seconds()
	for _, n := range append([]string{"sink"}, operatorNodes...) {
		if busy := r.layers.nodeBusy(n).Seconds(); busy > 0 {
			fmt.Fprintf(w, "  operator.%s busy %.2fs, summed over its instances, in %.2fs of run time\n", n, busy, wall)
		}
	}
	fmt.Fprintf(w, "  trace written to %s\n", r.trace)
}

func durations[T fmt.Stringer](ds []T) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.String()
	}
	return strings.Join(parts, " ")
}

// childRun starts this program again for one workload and returns the JSON
// object it printed last. Each workload gets a process of its own so that
// peak memory and the collector's state are the workload's alone.
func childRun(w workload, seed int64, seconds int, traced bool, echo bool) (output, error) {
	exe, err := os.Executable()
	if err != nil {
		return output{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(buf.Bytes())
		return output{}, fmt.Errorf("%s: %w", w.name, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && echo {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return output{}, fmt.Errorf("%s: last line is not a result: %w", w.name, err)
	}
	return out, nil
}

// runAll runs every workload, each in its own child process, one after the
// other, and returns the end-to-end results by workload. It fails when any
// workload's output disagrees with the reference.
func runAll(seed int64, seconds int, traced bool, echo bool) (map[string]output, error) {
	results := map[string]output{}
	tracedTput := map[string]float64{}
	var failed []string
	for _, w := range workloads {
		out, err := childRun(w, seed, seconds, false, echo)
		if err != nil {
			return nil, err
		}
		results[w.name] = out
		if !out.Correct {
			failed = append(failed, w.name)
		}
		if traced {
			t, err := childRun(w, seed, seconds, true, echo)
			if err != nil {
				return nil, err
			}
			tracedTput[w.name] = t.Metrics["source.throughput_rps"].Value
			if !t.Correct {
				failed = append(failed, w.name+" (traced)")
			}
		}
	}
	if echo {
		fmt.Println("\nsummary")
		fmt.Printf("  %-16s %10s %10s", "workload", "attempted", "failed")
		for _, d := range endToEnd {
			fmt.Printf(" %16s", d.name)
		}
		fmt.Println()
		for _, w := range workloads {
			o := results[w.name]
			fmt.Printf("  %-16s %10d %10d", w.name, o.Attempted, o.Failed)
			for _, d := range endToEnd {
				fmt.Printf(" %16.4f", o.Metrics[d.name].Value)
			}
			fmt.Println()
		}
		base := results["window-uniform"].Metrics["throughput_rps"].Value
		fmt.Printf("  serve.cost_ratio %.2f (window-uniform / serve-fanout throughput_rps)\n",
			ratio(base, results["serve-fanout"].Metrics["throughput_rps"].Value))
		for _, w := range workloads {
			if t, ok := tracedTput[w.name]; ok {
				fmt.Printf("  tracing overhead on %-16s %.1f%% (traced %.0f vs untraced %.0f rec/s)\n", w.name,
					100*(1-ratio(t, results[w.name].Metrics["throughput_rps"].Value)), t, results[w.name].Metrics["throughput_rps"].Value)
			}
		}
	}
	if len(failed) > 0 {
		return results, fmt.Errorf("outputs disagree with the reference on %s", strings.Join(failed, ", "))
	}
	return results, nil
}

// quartiles returns the first quartile, the median and the third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), which is how the spread of a metric is judged. That method
// extrapolates beyond the data when there are fewer than four values (two
// values a and b get quartiles 1.5 times their distance apart), so for those
// the quartiles are the extremes instead.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) < 4 {
		return d[0], median(d), d[len(d)-1]
	}
	const n = 4
	m := len(d)
	cut := func(i int) float64 {
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return cut(1), cut(2), cut(3)
}

// bounds reads each end-to-end metric's regression bound from BENCHMARK.json
// in the current directory.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	b := map[string]float64{}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b, nil
}

// checkRepeat runs the whole set n times, each time with the next seed, and
// prints each end-to-end metric's median, quartiles and spread (the distance
// between the quartiles as a share of the median) per workload beside its
// bound. It fails if a spread exceeds its bound or any operation failed.
// setup_s is printed but not judged on spread: its bound guards the median.
func checkRepeat(n int, seed int64, seconds int) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	runs := make([]map[string]output, n)
	for i := range runs {
		fmt.Printf("set %d of %d, seed %d\n", i+1, n, seed+int64(i))
		if runs[i], err = runAll(seed+int64(i), seconds, false, false); err != nil {
			return err
		}
	}
	var over []string
	fmt.Printf("%-16s %-16s %14s %14s %14s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			vals := make([]float64, n)
			for i, r := range runs {
				vals[i] = r[w.name].Metrics[d.name].Value
			}
			q1, q2, q3 := quartiles(vals)
			spread := ratio(q3-q1, q2)
			mark := ""
			if spread > bound[d.name] && d.name != "setup_s" {
				mark = "  over"
				over = append(over, w.name+"/"+d.name)
			}
			fmt.Printf("%-16s %-16s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%%s\n", w.name, d.name, q1, q2, q3,
				100*spread, 100*bound[d.name], mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread over its bound: %s", strings.Join(over, ", "))
	}
	return nil
}
