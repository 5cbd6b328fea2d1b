package protocols

// ticksAVX2 is the lockstep engine's AVX2 tick kernel (see
// lockstepEngine). It visits the four-lane groups covering lanes
// [0, 4·groups) round-robin and advances every eligible lane of a group by
// one tick per visit. It returns after kernelIters visits, after a full
// circuit of groups with no eligible lane, or when it refuses a group
// whose Lemire draw would retry; refused reports the last. Call it only
// when cpufeat.AVX2 reports true, on an engine whose kernel field is set.
//
//go:noescape
func ticksAVX2(e *lockstepEngine, groups int) (refused bool)
