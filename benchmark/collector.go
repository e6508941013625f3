package main

import (
	"time"

	"repro/internal/core"
)

// The strides of sampled measurements: stateless-hops takes a latency sample
// on every 16th record, and a traced run times one call in 64 at the sink and
// in the state decorator.
const (
	latencyStride = 16
	timingStride  = 64
)

// collector is the consumer of a phase's job: the function behind the sink.
// It stamps every result with the time it was observed and keeps what the
// reference check needs. The sink has parallelism 1 and incarnations run one
// after another, so one goroutine at a time writes here.
type collector struct {
	clk    clock
	ring   *ring
	pacer  *pacer // nil in closed-loop phases: no latency is taken
	traced bool

	run     int32        // incarnation now running
	results resultLog    // windowed workloads
	records *recordCheck // stateless-hops
	latency *sliced      // stateless-hops: sampled online
	// haSink receives the first result of an incarnation: ha.RunSupervised
	// polls its own sink to time recovery and stops polling at the first
	// event it finds there.
	haSink core.Operator

	calls int64
	busy  time.Duration // time inside the sink, scaled from sampled calls
}

// sink is the function handed to core.SinkFunc.
func (c *collector) sink(e core.Event) error {
	c.calls++
	if c.traced && c.calls%timingStride == 0 {
		t0 := c.clk.Now()
		err := c.observe(e)
		c.busy += (c.clk.Now() - t0) * timingStride
		return err
	}
	return c.observe(e)
}

func (c *collector) observe(e core.Event) error {
	if c.haSink != nil {
		if err := c.haSink.ProcessElement(e, nil); err != nil {
			return err
		}
		c.haSink = nil
	}
	if c.records == nil {
		sum, _ := e.Value.(float64)
		c.results.add(result{key: e.Key, end: e.Timestamp + 1, sum: sum, at: c.clk.Now(), run: c.run})
		return nil
	}
	idx, p := eventIndex(c.ring, e)
	if p == nil {
		c.records.bad.unaccounted++
		return nil
	}
	c.records.observe(idx, e.Key, p.v)
	if c.pacer != nil && idx%latencyStride == 0 {
		if slice, ok := c.pacer.slice(idx); ok {
			c.latency.observe(slice, int64(c.clk.Now()-c.pacer.due(idx)))
		}
	}
	return nil
}

// verify checks everything the sink saw against the reference over the
// records admitted, and returns the phase's result latencies: for a windowed
// workload, from the due time of the window's last record to the result's
// observation, for windows that a watermark closed inside the measured part
// of the phase (the final flush at end of stream is verified, not timed).
func (c *collector) verify(windowMs, admitted int64) (verdict, *sliced) {
	if c.records != nil {
		return c.records.finish(admitted), c.latency
	}
	lat := newSliced()
	v := checkWindows(c.ring, windowMs, admitted, &c.results, func(i int) {
		res := c.results.at(i)
		last := res.end*recordsPerMs - 1
		// A watermark passes res.end once a record of the millisecond after
		// it has been admitted and the next periodic watermark has gone out.
		closedBy := (res.end+1)*recordsPerMs + watermarkEvery
		if c.pacer == nil || closedBy > admitted {
			return
		}
		if slice, ok := c.pacer.slice(last); ok {
			lat.observe(slice, int64(res.at-c.pacer.due(last)))
		}
	})
	return v, lat
}

// watermarkEvery is the engine's default periodic watermark interval in
// source records (core.Config.WatermarkInterval's default).
const watermarkEvery = 32
