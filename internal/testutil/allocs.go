package testutil

import "runtime"

// Mallocs calls f once to warm it up, then calls it runs more times with
// GOMAXPROCS set to 1, and returns the number of heap allocations made
// over those calls. testing.AllocsPerRun returns the truncated integer mean
// instead, which reads 0 for a function that allocates on only some of its
// calls; a zero total here means no call allocated.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
