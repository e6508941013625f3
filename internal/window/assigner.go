// Package window implements windowing over event-time streams (§2.1/§2.2):
// tumbling, sliding, session and global window assigners, an engine operator
// with allowed lateness, an interval join, and the sliding-window aggregation
// algorithms the survey highlights — naive re-evaluation, pane-based partial
// aggregation ("No pane, no gain", Li et al. SIGMOD Record 2005) and a two-stacks
// incremental aggregator that handles non-invertible functions — plus a
// batch-vectorized kernel standing in for the hardware-accelerated operators
// of §4.2.
package window

import "fmt"

// Window is a half-open event-time interval [Start, End).
type Window struct {
	Start int64
	End   int64
}

// String renders the window for debugging and map keys.
func (w Window) String() string { return fmt.Sprintf("[%d,%d)", w.Start, w.End) }

// Contains reports whether ts falls inside the window.
func (w Window) Contains(ts int64) bool { return ts >= w.Start && ts < w.End }

// Intersects reports whether two windows overlap.
func (w Window) Intersects(o Window) bool { return w.Start < o.End && o.Start < w.End }

// Cover returns the smallest window containing both (used by session merge).
func (w Window) Cover(o Window) Window {
	s, e := w.Start, w.End
	if o.Start < s {
		s = o.Start
	}
	if o.End > e {
		e = o.End
	}
	return Window{Start: s, End: e}
}

// Assigner maps an element timestamp to the windows it belongs to.
type Assigner interface {
	// Assign returns the windows for an element at ts.
	Assign(ts int64) []Window
	// IsSession reports whether windows must be merged when they overlap.
	IsSession() bool
}

// PointAssigner is an optional Assigner refinement for assigners that map a
// timestamp to exactly one window. The operator uses it to skip the []Window
// slice allocation Assign pays on every record.
type PointAssigner interface {
	// AssignPoint returns the single window containing ts.
	AssignPoint(ts int64) Window
}

// FixedEnd is an optional Assigner refinement for assigners whose windows are
// uniquely determined by their end timestamp. The operator uses it to fire
// timers with a direct state lookup instead of scanning every open window of
// the key — the open set grows with watermark lag, so under deep buffering
// the scan is the windowing hot path. Session assigners cannot implement it:
// merging moves window ends.
type FixedEnd interface {
	// WindowEnding returns the window ending exactly at end, if any.
	WindowEnding(end int64) (Window, bool)
}

// TumblingAssigner produces fixed, non-overlapping windows of a given size.
type TumblingAssigner struct {
	Size int64
}

// NewTumbling returns a tumbling assigner; size must be positive.
func NewTumbling(size int64) TumblingAssigner {
	if size <= 0 {
		panic("window: tumbling size must be positive")
	}
	return TumblingAssigner{Size: size}
}

// Assign implements Assigner.
func (a TumblingAssigner) Assign(ts int64) []Window {
	return []Window{a.AssignPoint(ts)}
}

// AssignPoint implements PointAssigner.
func (a TumblingAssigner) AssignPoint(ts int64) Window {
	start := floorDiv(ts, a.Size) * a.Size
	return Window{Start: start, End: start + a.Size}
}

// IsSession implements Assigner.
func (TumblingAssigner) IsSession() bool { return false }

// WindowEnding implements FixedEnd: a tumbling window is fully determined by
// its end timestamp.
func (a TumblingAssigner) WindowEnding(end int64) (Window, bool) {
	return Window{Start: end - a.Size, End: end}, true
}

// SlidingAssigner produces overlapping windows of a given size every slide.
type SlidingAssigner struct {
	Size  int64
	Slide int64
}

// NewSliding returns a sliding assigner; both parameters must be positive
// and slide must not exceed size.
func NewSliding(size, slide int64) SlidingAssigner {
	if size <= 0 || slide <= 0 || slide > size {
		panic("window: invalid sliding parameters")
	}
	return SlidingAssigner{Size: size, Slide: slide}
}

// Assign implements Assigner: an element belongs to size/slide windows.
func (a SlidingAssigner) Assign(ts int64) []Window {
	last := floorDiv(ts, a.Slide) * a.Slide
	var out []Window
	for start := last; start > ts-a.Size; start -= a.Slide {
		out = append(out, Window{Start: start, End: start + a.Size})
	}
	return out
}

// IsSession implements Assigner.
func (SlidingAssigner) IsSession() bool { return false }

// WindowEnding implements FixedEnd: sliding windows overlap, but all share
// one size, so the end timestamp still pins down a single window.
func (a SlidingAssigner) WindowEnding(end int64) (Window, bool) {
	return Window{Start: end - a.Size, End: end}, true
}

// SessionAssigner produces per-element windows [ts, ts+gap) that are merged
// with any overlapping window of the same key by the operator.
type SessionAssigner struct {
	Gap int64
}

// NewSession returns a session assigner; gap must be positive.
func NewSession(gap int64) SessionAssigner {
	if gap <= 0 {
		panic("window: session gap must be positive")
	}
	return SessionAssigner{Gap: gap}
}

// Assign implements Assigner.
func (a SessionAssigner) Assign(ts int64) []Window {
	return []Window{a.AssignPoint(ts)}
}

// AssignPoint implements PointAssigner.
func (a SessionAssigner) AssignPoint(ts int64) Window {
	return Window{Start: ts, End: ts + a.Gap}
}

// IsSession implements Assigner.
func (SessionAssigner) IsSession() bool { return true }

// GlobalAssigner puts every element into one all-encompassing window; results
// only fire at end of stream (or via count triggers).
type GlobalAssigner struct{}

// Assign implements Assigner.
func (GlobalAssigner) Assign(int64) []Window {
	return []Window{{Start: minInt64, End: maxInt64}}
}

// AssignPoint implements PointAssigner.
func (GlobalAssigner) AssignPoint(int64) Window {
	return Window{Start: minInt64, End: maxInt64}
}

// IsSession implements Assigner.
func (GlobalAssigner) IsSession() bool { return false }

// WindowEnding implements FixedEnd: only the single all-encompassing window
// ever fires, at the final watermark.
func (GlobalAssigner) WindowEnding(end int64) (Window, bool) {
	if end != maxInt64 {
		return Window{}, false
	}
	return Window{Start: minInt64, End: maxInt64}, true
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// floorDiv divides rounding toward negative infinity (correct window
// alignment for negative timestamps).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
