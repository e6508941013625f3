package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// chunkRecords is how many records one CollectBatch call carries: one ingest
// poll. A checkpoint barrier enters between two calls, so it is also the
// granularity of the replay offset.
const chunkRecords = 256

var errKilled = errors.New("benchmark: injected kill")

// feed is the generator side of one phase, shared by every incarnation of
// the phase's job: it decides which record indices are admitted when. The
// saturation phase is a closed loop (the next chunk is offered as soon as the
// bounded channels took the previous one); the paced phase is an open loop
// driven by a pacer. Incarnations run one after another, each source on its
// own goroutine, so the fields need no lock.
type feed struct {
	ring  *ring
	clk   clock
	pacer *pacer // nil in the closed-loop phases
	// warm and measure are the closed-loop phase's lengths; both zero makes a
	// set-up probe that admits nothing.
	warm, measure time.Duration
	// credit, when set, widens the closed loop beyond the job's channels: it
	// returns how many more records may be admitted now given that next is
	// the first unadmitted one (serve-fanout closes its loop over the
	// subscriptions, see serveEnv.credit).
	credit func(next int64) int64

	firstRecord time.Duration // clock time the first source started running
	admitted    int64         // records [0, admitted) were admitted at least once
	collectBusy time.Duration // time inside CollectBatch: admission + backpressure
	creditWait  time.Duration // time spent waiting for credit to admit more

	// Closed loop: the generator's position when the measured window began
	// and when it ended.
	from, to mark

	// Fault injection (ckpt-recover's paced phase): the job is failed when
	// admission first reaches each of these record indices.
	kills []int64
	fail  func(error) // fails the live incarnation; set before it runs
	// consumed is how many records the live incarnation's first operator has
	// taken off its input; set with fail.
	consumed func() int64
	rec      recovery

	tr        *tracer // nil unless traced
	phaseSpan int
}

// recovery times each kill: restart is kill to the next incarnation being
// built, restore from there to its first admitted record, catch-up from there
// until the generator is less than caughtUp behind schedule again and the
// job's first operator is within consumedSlack records of it. (The second
// condition matters when the backlog a kill leaves is no larger than what the
// job's bounded channels hold: admitting it is then not yet processing it.)
type recovery struct {
	killAt, startAt, admitAt time.Duration
	pending                  bool
	restart, restore, catch  []time.Duration
	replayed                 int64
}

// started is called when a new incarnation has been built.
func (f *feed) started() {
	if f.rec.pending && f.rec.startAt == 0 {
		f.rec.startAt = f.clk.Now()
	}
}

func (f *feed) factory() core.SourceFactory {
	return func(int, int) core.Source { return &source{f: f} }
}

// source is one incarnation's replayable source over the feed.
type source struct {
	f    *feed
	next int64 // next record index to admit; the checkpointed offset
	from int64 // where this incarnation started
}

func (s *source) SnapshotOffset() ([]byte, error) {
	return binary.BigEndian.AppendUint64(nil, uint64(s.next)), nil
}

func (s *source) RestoreOffset(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("benchmark: source offset is %d bytes, want 8", len(data))
	}
	s.next = int64(binary.BigEndian.Uint64(data))
	return nil
}

func (s *source) Run(ctx core.SourceContext) error {
	f := s.f
	if f.firstRecord == 0 {
		f.firstRecord = f.clk.Now()
	}
	s.from = s.next
	if f.rec.pending {
		f.rec.admitAt = f.clk.Now()
		f.rec.replayed += f.admitted - s.next
	}
	buf := make([]core.Event, chunkRecords)
	slice := f.tr.begin("source.slice", f.phaseSpan)
	sliceEnd := f.clk.Now() + sliceLen
	for {
		n := chunkRecords
		if f.pacer != nil {
			var ok bool
			if n, ok = f.pacer.release(s.next, chunkRecords); !ok {
				break
			}
			if f.rec.pending && f.pacer.lastLate < caughtUp && f.consumed() >= s.next-s.from-consumedSlack {
				f.caughtUp()
			}
		} else if f.measure == 0 {
			break
		} else if f.credit != nil {
			c := f.credit(s.next)
			if c <= 0 {
				t0 := f.clk.Now()
				for ; c <= 0 && !ctx.Stopped(); c = f.credit(s.next) {
					f.clk.Sleep(creditPoll)
				}
				f.creditWait += f.clk.Now() - t0
			}
			if c < chunkRecords {
				n = int(c)
			}
			if n <= 0 {
				break
			}
		}
		f.ring.fill(buf[:n], s.next)
		t0 := f.clk.Now()
		if !ctx.CollectBatch(buf[:n]) {
			break
		}
		now := f.clk.Now()
		f.collectBusy += now - t0
		s.next += int64(n)
		if s.next > f.admitted {
			f.admitted = s.next
		}
		if now >= sliceEnd {
			f.tr.end(slice)
			slice = f.tr.begin("source.slice", f.phaseSpan)
			sliceEnd = now + sliceLen
		}
		if len(f.kills) > 0 && s.next >= f.kills[0] && !f.rec.pending {
			f.kills = f.kills[1:]
			f.rec.killAt, f.rec.pending = now, true
			f.fail(errKilled)
			break
		}
		if f.pacer == nil && f.closedLoopDone(now, s.next) {
			break
		}
	}
	f.tr.end(slice)
	return nil
}

// consumedSlack is how far the job's first operator may trail the source and
// still count as caught up: two exchange batches.
const consumedSlack = 2 * batchSize

// creditPoll is how long the closed-loop source sleeps between looks at a
// credit function that had nothing to give.
const creditPoll = 200 * time.Microsecond

// sliceLen is the length of one traced source slice.
const sliceLen = 100 * time.Millisecond

// measureSlices is how many equal slices a phase's measured window is cut
// into. Latency percentiles are taken per slice and the median over the
// slices is reported, so that a collector cycle or a scheduling hiccup moves
// the slices it falls in and not the result.
const measureSlices = 32

// mark is the generator's position at a point in time.
type mark struct {
	at   time.Duration
	next int64
}

// closedLoopDone marks the ends of a closed-loop phase's measured window and
// reports when the window is over.
func (f *feed) closedLoopDone(now time.Duration, next int64) bool {
	since := now - f.firstRecord
	if f.from.at == 0 && since >= f.warm {
		f.from = mark{now, next}
	}
	if since < f.warm+f.measure {
		return false
	}
	f.to = mark{now, next}
	return true
}

// throughput is the closed loop's result: records admitted per second over
// the whole measured window, stalls included (a checkpoint that blocks
// admission for half a second is part of what the job sustains).
func (f *feed) throughput() float64 {
	if f.to.at <= f.from.at {
		return 0
	}
	return float64(f.to.next-f.from.next) / (f.to.at - f.from.at).Seconds()
}

// caughtUp closes the recovery that the last kill opened.
func (f *feed) caughtUp() {
	r := &f.rec
	now := f.clk.Now()
	r.restart = append(r.restart, r.startAt-r.killAt)
	r.restore = append(r.restore, r.admitAt-r.startAt)
	r.catch = append(r.catch, now-r.admitAt)
	r.pending = false
	r.startAt, r.admitAt = 0, 0
}

var _ core.ReplayableSource = (*source)(nil)
