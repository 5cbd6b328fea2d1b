package main

import (
	"syscall"
	"time"

	"lvmajority/internal/stats"
)

// quantile is stats.Quantile, reading 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	v, _ := stats.Quantile(xs, q)
	return v
}

// tailPercentile returns the highest of the usual reporting percentiles
// that leaves at least ten samples beyond it, or 100 (the maximum) when
// there are too few samples for any of them.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 100
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfUsage returns this process's user+system CPU time and its peak
// resident set in bytes.
func selfUsage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss * 1024
}

// mix64 is the splitmix64 finalizer: it derives independent-looking seeds
// from the benchmark seed and a salt.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
