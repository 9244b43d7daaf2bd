package main

import (
	"syscall"
	"time"
)

// Every read of host time in the benchmark goes through this file, so
// the determinism analyzer has one place to sanction: the simulator's
// cost on the host is the thing being measured, and simulated results
// never depend on these readings.

//noftl:ignore determinism process epoch for host-cost measurement; never feeds simulated state
var processStart = time.Now()

// wallNs is the host time since process start in nanoseconds.
func wallNs() int64 {
	//noftl:ignore determinism host-cost measurement is the benchmark's purpose; never feeds simulated state
	return int64(time.Since(processStart))
}

// wallSince is the host time in seconds since an earlier wallNs reading.
func wallSince(startNs int64) float64 { return float64(wallNs()-startNs) / 1e9 }

// cpuSeconds is the user+system CPU time this process has consumed
// (getrusage), the host-cost twin of wall time that excludes idling.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
