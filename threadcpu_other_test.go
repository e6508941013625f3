//go:build !linux

package repro

import "time"

// threadCPU falls back to the wall clock where per-thread CPU time is not
// available.
func threadCPU() int64 { return time.Now().UnixNano() }
