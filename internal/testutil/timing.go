package testutil

import (
	"math"
	"time"
)

// timingWindow is how long NsPer keeps calling its op. The repository's
// engine-against-engine gates take the minimum of three alternating
// windows per engine and bound ratios with at least a 1.8× margin, which a
// quarter second resolves on a noisy 2-core VM; FastestNsPer runs for
// three windows.
const timingWindow = 250 * time.Millisecond

// NsPer calls op until timingWindow has passed and returns the elapsed
// nanoseconds per unit of work: op returns the units each call did, such
// as simulated events or draws, and must return a positive count. Unlike
// testing.Benchmark, which grows its iteration count until a run lasts a
// second and often runs several seconds to get there, NsPer stops at the
// first call that ends past the window.
func NsPer(op func() (units int64)) float64 {
	var units int64
	start := time.Now()
	for {
		units += op()
		if elapsed := time.Since(start); elapsed >= timingWindow {
			return float64(elapsed.Nanoseconds()) / float64(units)
		}
	}
}

// FastestNsPer calls the ops in turn, one call of each per pass, for three
// timing windows and returns each op's fastest call in nanoseconds per
// unit of work; each op returns the units its call did, a positive count.
// A noisy machine only ever slows a call down, so the fastest of many
// short calls, interleaved so that every op meets the same spells of the
// machine, resolves differences of a few percent that the minimum of three
// NsPer windows cannot. Each call should be short, tens of microseconds,
// so that many calls run untouched.
func FastestNsPer(ops ...func() (units int64)) []float64 {
	best := make([]float64, len(ops))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for start := time.Now(); time.Since(start) < 3*timingWindow; {
		for i, op := range ops {
			t0 := time.Now()
			units := op()
			best[i] = min(best[i], float64(time.Since(t0).Nanoseconds())/float64(units))
		}
	}
	return best
}
