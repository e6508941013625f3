package main

import (
	"testing"
	"time"
)

// fakeClock is a clock the test advances: sleeping and stalling are the only
// ways time passes.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration    { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += d }

// drive runs the pacer the way the source does, with send standing in for
// CollectBatch, and returns how many records were released.
func drive(p *pacer, send func(from int64, n int)) int64 {
	next := int64(0)
	for {
		n, ok := p.release(next, chunkRecords)
		if !ok {
			return next
		}
		send(next, n)
		next += int64(n)
	}
}

func TestPacerReleasesOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	p := newPacer(clk, 100_000, 0, 0, time.Second)
	released := drive(p, func(int64, int) { clk.now += 10 * time.Microsecond })
	// One record is due at each of 100000 instants in [0, 1s); the last tick
	// before the stop is at 999 ms.
	if want := p.dueBy(999 * time.Millisecond); released != want {
		t.Errorf("released %d records, want %d", released, want)
	}
	if max := time.Duration(p.late.maxValue()); max > 2*tickLen {
		t.Errorf("an unstalled generator ran %v late, want under two ticks", max)
	}
	if !p.sustained() {
		t.Errorf("unstalled phase reported as not sustained (late %v at the end)", p.endLate)
	}
}

// A CollectBatch that stalls for 50 ms must be charged to the records queued
// behind it: they are released late, stamped with how late, and latencies
// timed from their due times include the wait. Afterwards the generator is
// back on schedule.
func TestPacerChargesStallToQueuedRecords(t *testing.T) {
	const rate = 100_000
	const stall = 50 * time.Millisecond
	clk := &fakeClock{}
	p := newPacer(clk, rate, 0, 0, time.Second)
	stallAt := p.dueBy(300 * time.Millisecond)
	var stalled bool
	var stallEnd time.Duration
	var lateAfter []time.Duration // lateness of each release after the stall
	var waited int64              // records due during the stall
	drive(p, func(from int64, n int) {
		if stalled {
			lateAfter = append(lateAfter, p.lastLate)
			for i := from; i < from+int64(n); i++ {
				if p.due(i) < stallEnd-time.Millisecond {
					waited++
					// What a consumer would measure for this record, timed
					// from its due time, is at least the rest of the stall.
					if clk.now-p.due(i) < stallEnd-p.due(i) {
						t.Fatalf("record %d due at %v was released at %v, before the stall ended at %v", i, p.due(i), clk.now, stallEnd)
					}
				}
			}
		}
		clk.now += 10 * time.Microsecond
		if !stalled && from+int64(n) >= stallAt {
			stalled = true
			clk.now += stall
			stallEnd = clk.now
		}
	})
	if len(lateAfter) == 0 {
		t.Fatal("nothing was released after the stall")
	}
	if first := lateAfter[0]; first < stall-2*tickLen {
		t.Errorf("first release after a %v stall was stamped %v late", stall, first)
	}
	if want := int64(stall.Seconds()*rate) * 9 / 10; waited < want {
		t.Errorf("%d records were charged with the stall, want about %d (every record due during it)", waited, want)
	}
	if max := time.Duration(p.late.maxValue()); max < stall-2*tickLen {
		t.Errorf("lateness histogram max %v does not show the %v stall", max, stall)
	}
	if last := lateAfter[len(lateAfter)-1]; last > 2*tickLen {
		t.Errorf("lateness is %v at the end of the phase, want back under two ticks", last)
	}
	if p.maxBacklog < int64(stall.Seconds()*rate) {
		t.Errorf("max backlog %d records, want at least the %d due during the stall", p.maxBacklog, int64(stall.Seconds()*rate))
	}
	if !p.sustained() {
		t.Error("a phase that recovered from a 50 ms stall reported as not sustained")
	}
}

func TestPacerReportsUnsustainedRate(t *testing.T) {
	clk := &fakeClock{}
	p := newPacer(clk, 100_000, 0, 0, 4*time.Second)
	// Each chunk takes 4 ms to send: a quarter of the offered rate.
	drive(p, func(int64, int) { clk.now += 4 * time.Millisecond })
	if p.sustained() {
		t.Errorf("generator ended %v behind and still reported the rate as sustained", p.endLate)
	}
}

func TestPacerSlices(t *testing.T) {
	// One record per millisecond, a 2 s warm-up, then one slice per 100 ms.
	p := newPacer(&fakeClock{}, 1000, 0, 2*time.Second, measureSlices*100*time.Millisecond)
	if _, ok := p.slice(1999); ok {
		t.Error("a record due in the warm-up was given a measured slice")
	}
	for want := 0; want < measureSlices; want++ {
		for _, idx := range []int64{2001 + 100*int64(want), 2098 + 100*int64(want)} {
			if s, ok := p.slice(idx); !ok || s != want {
				t.Errorf("record %d is in slice %d (measured %v), want %d", idx, s, ok, want)
			}
		}
	}
	if _, ok := p.slice(2000 + 100*measureSlices); ok {
		t.Error("a record due after the phase was given a measured slice")
	}
}
