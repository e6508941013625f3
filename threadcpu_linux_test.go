package repro

import (
	"syscall"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used, in ns. Lock
// the goroutine to its thread around a measurement: time spent descheduled
// is then not counted. It reads the thread's CPU clock, not
// getrusage(RUSAGE_THREAD): that one advances only when the scheduler
// updates its accounting, so a few-ms kernel often reads as zero.
func threadCPU() int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return ts.Nano()
}
