package eventtime

import "math"

// MinWatermark is the watermark value before any progress has been observed.
const MinWatermark = math.MinInt64

// MaxWatermark signals that the stream has ended: no element with any
// timestamp can arrive after it.
const MaxWatermark = math.MaxInt64

// WatermarkGenerator produces watermarks from the observed event stream.
// A watermark W asserts that no further events with timestamp <= W are
// expected (modulo late data, which downstream operators may still choose to
// handle). This is the 2nd-generation progress mechanism popularised by
// MillWheel and the Dataflow model (§2.3).
type WatermarkGenerator interface {
	// OnEvent observes an element timestamp and returns a new watermark, or
	// MinWatermark if the element does not advance progress (punctuated
	// generators emit on markers only, periodic ones on OnPeriodic).
	OnEvent(ts int64) int64
	// OnPeriodic is invoked by the runtime on a timer and returns the current
	// watermark, or MinWatermark if none should be emitted.
	OnPeriodic() int64
}

// BoundedOutOfOrderness is the standard watermark strategy: it assumes
// disorder is bounded by a fixed delay, emitting watermark = maxSeen - bound.
type BoundedOutOfOrderness struct {
	Bound   int64 // maximum expected out-of-orderness in milliseconds
	maxSeen int64
	started bool
}

// NewBoundedOutOfOrderness returns a generator tolerating the given disorder
// bound in milliseconds.
func NewBoundedOutOfOrderness(boundMillis int64) *BoundedOutOfOrderness {
	return &BoundedOutOfOrderness{Bound: boundMillis}
}

// OnEvent tracks the maximum timestamp; watermarks are emitted periodically.
func (b *BoundedOutOfOrderness) OnEvent(ts int64) int64 {
	if !b.started || ts > b.maxSeen {
		b.maxSeen = ts
		b.started = true
	}
	return MinWatermark
}

// OnPeriodic returns maxSeen - bound - 1, the strongest safe assertion under
// the bounded-disorder assumption.
func (b *BoundedOutOfOrderness) OnPeriodic() int64 {
	if !b.started {
		return MinWatermark
	}
	return b.maxSeen - b.Bound - 1
}

// AscendingTimestamps is the special case of perfectly ordered input.
type AscendingTimestamps struct {
	inner BoundedOutOfOrderness
}

// OnEvent tracks the maximum timestamp.
func (a *AscendingTimestamps) OnEvent(ts int64) int64 { return a.inner.OnEvent(ts) }

// OnPeriodic returns maxSeen-1.
func (a *AscendingTimestamps) OnPeriodic() int64 { return a.inner.OnPeriodic() }

// WatermarkTracker combines watermarks from multiple input channels into a
// single output watermark, the minimum across channels — the alignment rule
// every dataflow engine applies at operators with multiple upstream channels.
type WatermarkTracker struct {
	channels []int64
	current  int64
}

// NewWatermarkTracker returns a tracker over n input channels.
func NewWatermarkTracker(n int) *WatermarkTracker {
	t := &WatermarkTracker{channels: make([]int64, n), current: MinWatermark}
	for i := range t.channels {
		t.channels[i] = MinWatermark
	}
	return t
}

// Update records a watermark from the given channel and returns the combined
// watermark and whether it advanced.
func (t *WatermarkTracker) Update(channel int, wm int64) (int64, bool) {
	if channel < 0 || channel >= len(t.channels) {
		return t.current, false
	}
	if wm <= t.channels[channel] {
		return t.current, false
	}
	t.channels[channel] = wm
	min := int64(MaxWatermark)
	for _, w := range t.channels {
		if w < min {
			min = w
		}
	}
	if min > t.current {
		t.current = min
		return t.current, true
	}
	return t.current, false
}

// Current returns the combined watermark.
func (t *WatermarkTracker) Current() int64 { return t.current }

// Lag returns how far a watermark trails a reference event time: ref - wm.
// The engine's reference is the largest timestamp its sources have emitted,
// so the lag is the stretch of event time already in flight that the
// watermark does not yet cover — meaningful for live, historical and
// synthetic timestamps alike. The sentinel values report 0 lag: before any
// progress (wm or ref at MinWatermark) there is nothing to lag behind, and
// after the stream ends (MaxWatermark) progress is complete.
func Lag(ref, wm int64) int64 {
	if wm == MinWatermark || wm == MaxWatermark || ref == MinWatermark {
		return 0
	}
	return ref - wm
}
