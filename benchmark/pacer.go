package main

import "time"

// clock is the time source of a phase. Now is monotonic time since the
// clock's origin; tests inject a clock they advance by hand.
type clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration    { return time.Since(c.origin) }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }

const (
	// tickLen is the pacer's release granularity.
	tickLen = time.Millisecond
	// caughtUp is the lateness under which the generator counts as on
	// schedule again after a kill.
	caughtUp = 10 * time.Millisecond
	// unsustained is the end-of-phase lateness beyond which the offered rate
	// was not sustained and the phase's operations count as failed.
	unsustained = time.Second
)

// pacer is the open-loop schedule of a paced phase: record idx is due at
// start + idx/rate whatever the system under test does. On every 1 ms tick it
// releases the records due by then. A record released late is stamped with
// its lateness, and every latency downstream is timed from the record's due
// time, so a stall is charged to the records queued behind it (no coordinated
// omission).
type pacer struct {
	clk   clock
	rate  float64       // records per second
	start time.Duration // clock time at which record 0 is due
	warm  time.Duration // records due before start+warm are not measured
	stop  time.Duration // nothing is released at or after this clock time

	late       *hist         // ns each released record waited past its due time
	lastLate   time.Duration // lateness of the most recent release
	endLate    time.Duration // lateness of the first unreleased record at stop
	maxBacklog int64         // most records ever due and not yet released
}

func newPacer(clk clock, rate float64, start, warm, measure time.Duration) *pacer {
	return &pacer{clk: clk, rate: rate, start: start, warm: warm, stop: start + warm + measure, late: newHist()}
}

// slice is the measured slice record idx is due in, and whether it is due
// inside the measured window at all.
func (p *pacer) slice(idx int64) (int, bool) {
	from := p.start + p.warm
	due := p.due(idx)
	if due < from || due >= p.stop {
		return 0, false
	}
	return int((due - from) * measureSlices / (p.stop - from)), true
}

// due is the clock time at which record idx is due.
func (p *pacer) due(idx int64) time.Duration {
	return p.start + time.Duration(float64(idx)/p.rate*float64(time.Second))
}

// dueBy is how many records are due at or before clock time t.
func (p *pacer) dueBy(t time.Duration) int64 {
	if t < p.start {
		return 0
	}
	return int64(float64(t-p.start)/float64(time.Second)*p.rate) + 1
}

// release blocks until at least one record from index next on is due, and
// returns how many to send now, at most max. ok is false once the phase is
// over. The caller sends records [next, next+n) and calls release again with
// next+n; time it spends sending is time later records wait.
func (p *pacer) release(next int64, max int) (n int, ok bool) {
	for {
		now := p.clk.Now()
		if now >= p.stop {
			if next < p.dueBy(p.stop) {
				p.endLate = p.stop - p.due(next)
			}
			return 0, false
		}
		if now < p.start {
			p.clk.Sleep(p.start - now)
			continue
		}
		tick := (now - p.start) / tickLen
		if backlog := p.dueBy(p.start+tick*tickLen) - next; backlog > 0 {
			if backlog > p.maxBacklog {
				p.maxBacklog = backlog
			}
			if n = max; int64(n) > backlog {
				n = int(backlog)
			}
			// The chunk's first record has waited longest; stamping the whole
			// chunk with it errs on the late side by at most n/rate.
			p.lastLate = now - p.due(next)
			p.late.observeN(int64(p.lastLate), int64(n))
			return n, true
		}
		p.clk.Sleep(p.start + (tick+1)*tickLen - now)
	}
}

// sustained reports whether the generator ended the phase on schedule.
func (p *pacer) sustained() bool { return p.endLate <= unsustained }
