package main

import (
	"context"
	"flag"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSensitivity is the "injected slowdown is attributed to its layer"
// check, done from outside the engine: a delay of 20% of the snapshot store's
// mean Save time, spent inside the store decorator's Save, must show up in
// checkpoint.save_busy_s, by about what was injected, and in no other layer's
// busy time; a workload without a store must not move at all.
//
// It compares timings of separate runs, so it only runs when asked for:
//
//	go test ./benchmark -run Sensitivity -v
func TestSensitivity(t *testing.T) {
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "Sensitivity") {
		t.Skip("timing comparison; run with -run Sensitivity")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	run := func(name string, delay time.Duration) (*runResult, map[string]float64) {
		w, _ := findWorkload(name)
		o := optsFor(w, 1, 12, true, t.TempDir())
		o.saveDelay = delay
		res, err := runWorkload(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if v := res.verdict(); v.failed != 0 {
			t.Fatalf("%s: %v", name, v)
		}
		return res, res.perLayer()
	}

	_, base := run("ckpt-recover", 0)
	saves := base["checkpoint.saves"]
	meanSave := time.Duration(base["checkpoint.save_busy_s"] / saves * float64(time.Second))
	delay := meanSave / 5
	t.Logf("baseline: %.0f saves, mean %v, save_busy_s %.4f; injecting %v per Save", saves, meanSave,
		base["checkpoint.save_busy_s"], delay)

	_, slow := run("ckpt-recover", delay)
	injected := slow["checkpoint.saves"] * delay.Seconds()
	grew := slow["checkpoint.save_busy_s"]/slow["checkpoint.saves"] - base["checkpoint.save_busy_s"]/saves
	t.Logf("with delay: %.0f saves, save_busy_s %.4f (mean Save grew by %v, injected %v)",
		slow["checkpoint.saves"], slow["checkpoint.save_busy_s"], time.Duration(grew*float64(time.Second)), delay)
	if grew < 0.4*delay.Seconds() || grew > 2.5*delay.Seconds() {
		t.Errorf("mean Save time grew by %.6fs, want about the injected %.6fs", grew, delay.Seconds())
	}
	// No other layer's busy time may take the delay up. The allowance for
	// run-to-run noise is wide (fsync-bound layers double on their own), so
	// this catches gross misattribution only; see README.md.
	for _, other := range []string{"state.busy_s", "sink.busy_s", "checkpoint.complete_busy_s", "recovery.load_busy_s"} {
		diff := slow[other] - base[other]
		t.Logf("%-28s %.4f -> %.4f", other, base[other], slow[other])
		if diff > base[other]+injected {
			t.Errorf("%s grew by %.4fs (from %.4f): more than noise, the injected %.4fs leaked into it", other, diff, base[other], injected)
		}
	}
	// End to end the injection is invisible, and the test says so instead of
	// asserting a direction: 20% of Save is a few tens of milliseconds in a
	// run whose throughput moves by several percent on its own (README.md).
	t.Logf("end to end: throughput %.0f -> %.0f rec/s with %.4fs injected in all",
		base["source.throughput_rps"], slow["source.throughput_rps"], injected)

	// stateless-hops has no store: the same injection must leave it unmoved.
	_, still := run("stateless-hops", 0)
	_, moved := run("stateless-hops", delay)
	if moved["checkpoint.save_busy_s"] != 0 || moved["checkpoint.saves"] != 0 {
		t.Errorf("stateless-hops reports checkpoint work: %v saves, %vs", moved["checkpoint.saves"], moved["checkpoint.save_busy_s"])
	}
	a, b := still["source.throughput_rps"], moved["source.throughput_rps"]
	t.Logf("stateless-hops throughput %.0f -> %.0f rec/s", a, b)
	if b < 0.75*a || b > 1.25*a {
		t.Errorf("stateless-hops throughput moved from %.0f to %.0f", a, b)
	}
}
