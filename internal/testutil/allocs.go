package testutil

import (
	"runtime"
	"sync"
	"time"
)

// Mallocs calls f once to warm it up, then calls it runs more times with
// GOMAXPROCS set to 1, and returns the number of heap allocations made
// over those calls. testing.AllocsPerRun returns the truncated integer mean
// instead, which reads 0 for a function that allocates on only some of its
// calls; a zero total here means no call allocated.
//
// The count is process-wide, so the runtime's own allocations land in it
// too. The one seen in this repository's tests was the single P's timer
// heap growing when the background scavenger rearmed its timer. So before
// the warm-up Mallocs grows that heap: it arms spareTimers timers on the
// one P and waits for them to fire, and the heap keeps the capacity they
// took.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var fired sync.WaitGroup
	fired.Add(spareTimers)
	for range spareTimers {
		time.AfterFunc(time.Millisecond, fired.Done)
	}
	fired.Wait()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// spareTimers is how many timers Mallocs arms at once: far more than the
// runtime and the testing package keep armed.
const spareTimers = 64
