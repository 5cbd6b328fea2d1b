package lv

import "lvmajority/internal/cpufeat"

// KernelRounds caps the events one round-kernel call fires per lane.
const KernelRounds = kernelRounds

// Engine is one of Block.Run's engines: a widest round kernel, with the
// narrower kernels and the Go round under it, or the Go round alone.
type Engine struct {
	Name  string
	Group int // lanes per group of the widest kernel; 0 for the Go round alone
	k     kernel
}

// Engines returns the engines this CPU runs, the widest first and the Go
// round alone ("portable") last.
func Engines() []Engine {
	var es []Engine
	if cpufeat.AVX512() {
		es = append(es, Engine{"avx512", 8, avx512Kernel})
	}
	if cpufeat.AVX2() {
		es = append(es, Engine{"avx2", 4, avx2Kernel})
	}
	return append(es, Engine{"portable", 0, goRound})
}

// Run is Block.Run on engine e.
func (e Engine) Run(b *Block, seed uint64, lo, hi int, wins []bool) error {
	return b.run(seed, lo, hi, wins, e.k)
}

// LaneState is one lane of a Block: its generator state, configuration
// and step count.
type LaneState struct {
	S             [4]uint64
	X0, X1, Steps int
}

// KernelCall seeds lane li with replicate li of seed, for every lane, calls
// e's widest round kernel once on its first groups groups and returns
// every lane as seeded and as the call left it.
func (e Engine) KernelCall(b *Block, seed uint64, groups int) (before, after [BlockLanes]LaneState) {
	for li := range BlockLanes {
		b.start(li, seed, li, 0)
	}
	before = b.laneStates()
	switch e.k {
	case avx512Kernel:
		rounds512(b, groups)
	case avx2Kernel:
		roundsAVX2(b, groups)
	}
	return before, b.laneStates()
}

func (b *Block) laneStates() (ls [BlockLanes]LaneState) {
	l := &b.lanes
	for li := range ls {
		ls[li] = LaneState{[4]uint64{l.s0[li], l.s1[li], l.s2[li], l.s3[li]}, l.x0[li], l.x1[li], l.steps[li]}
	}
	return ls
}
