//go:build race

package repro

// raceEnabled reports whether the race detector is compiled in; the shape
// tests that compare wall time skip under it.
const raceEnabled = true
