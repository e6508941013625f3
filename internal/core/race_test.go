//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of Puts by design, so pooled paths allocate.
const raceEnabled = true
