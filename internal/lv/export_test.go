package lv

import "lvmajority/internal/cpufeat"

// KernelRounds caps the events one round-kernel call fires per lane.
const KernelRounds = kernelRounds

// Engine is one of Block.Run's engines: a widest round kernel, with the
// narrower kernels and the Go round under it, or the Go round alone.
type Engine struct {
	Name  string
	Group int // lanes per group of the widest kernel; 0 for the Go round alone
	k     cpufeat.Level
}

// Engines returns the engines this CPU runs, one per cpufeat level, the
// widest first and the Go round alone ("portable") last.
func Engines() []Engine {
	group := [...]int{cpufeat.Portable: 0, cpufeat.AVX2: 4, cpufeat.AVX512: 8}
	var es []Engine
	for _, k := range cpufeat.Levels() {
		es = append(es, Engine{k.String(), group[k], k})
	}
	return es
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
	case cpufeat.AVX512:
		rounds512(b, groups)
	case cpufeat.AVX2:
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
