package testutil

import "time"

// timingWindow is how long NsPer keeps calling its op. The repository's
// timing gates take the minimum of three alternating windows per engine
// and bound ratios with at least a 1.8× margin, which a quarter second
// resolves on a noisy 2-core VM.
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
