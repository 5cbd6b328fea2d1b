package protocols

// ticks512 is the lockstep engine's AVX-512 tick kernel (see
// lockstepEngine). It visits the eight-lane groups covering lanes
// [0, 8·groups) round-robin and advances every eligible lane of a group by
// one tick per visit. It returns after kernelIters visits, after a full
// circuit of groups with no eligible lane, or when it refuses a group
// whose Lemire draw would retry; refused reports the last. Call it only
// when cpufeat.Widest reports AVX512, on an engine whose kernel field is
// set.
//
//go:noescape
func ticks512(e *lockstepEngine, groups int) (refused bool)

// ticksAVX2 is ticks512 in four-lane groups, covering lanes
// [0, 4·groups). Call it only when cpufeat.Widest reports AVX2 or wider,
// on an engine whose kernel field is set.
//
//go:noescape
func ticksAVX2(e *lockstepEngine, groups int) (refused bool)
