package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// smokeOpts is a workload run short enough for `go test ./...`: one second
// measured per phase over a small ring, paced at a tenth of the frozen rate so
// that the result does not depend on what else the box is doing.
func smokeOpts(w workload, traced bool, dir string) runOpts {
	return runOpts{w: w, seed: 1, measure: time.Second, warm: 200 * time.Millisecond, traced: traced,
		outDir: dir, ring: 100_000, rateScale: 0.1}
}

// TestSmoke runs every workload, untraced and traced, with verification on.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(context.Background(), smokeOpts(w, traced, t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				v := res.verdict()
				if v.attempted == 0 || v.failed != 0 {
					t.Errorf("output disagrees with the reference: %v", v)
				}
				if !res.phases[paced].sustained {
					t.Errorf("paced phase at a tenth of the frozen rate was not sustained")
				}
				if w.durable {
					if got := len(res.phases[paced].recovered); got != len(killPoints) {
						t.Errorf("recovered from %d kills, want %d", got, len(killPoints))
					}
				}
				out := res.output()
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("reported %d metrics, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("metric %s = %+v (present %v), want a finite value in %s", d.name, m, ok, d.unit)
					}
				}
				if !traced {
					if out.Metrics["throughput_rps"].Value == 0 || out.Metrics["setup_s"].Value == 0 {
						t.Errorf("end-to-end metrics must not be zero: %+v", out.Metrics)
					}
					return
				}
				if res.bottleneck == "" {
					t.Error("traced run named no bottleneck node")
				}
				data, err := os.ReadFile(res.trace)
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil {
					t.Fatalf("trace file: %v", err)
				}
				if len(tf.Spans) == 0 || len(tf.SelfTime) == 0 || len(tf.Counters) != len(perLayer) {
					t.Errorf("trace file has %d spans, %d self times, %d counters", len(tf.Spans), len(tf.SelfTime), len(tf.Counters))
				}
				for _, s := range tf.Spans {
					if s.End < s.Start {
						t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the program in step:
// the same workloads, and exactly the metrics each mode reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i,
				spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s in %s, the program %s in %s", kind, i,
					got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// Fewer than four values: the extremes, not Python's extrapolation.
	if q1, q2, q3 := quartiles([]float64{20, 10}); q1 != 10 || q2 != 15 || q3 != 20 {
		t.Errorf("quartiles of two = %v %v %v, want 10 15 20", q1, q2, q3)
	}
}
