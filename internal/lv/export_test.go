package lv

// KernelRounds caps the events one AVX2 kernel call fires per lane.
const KernelRounds = kernelRounds

// RunPortable is Block.Run on the Go round alone.
func (b *Block) RunPortable(seed uint64, lo, hi int, wins []bool) error {
	return b.run(seed, lo, hi, wins, false)
}

// KernelCall seeds lane li with replicate li of seed, for every lane, calls
// the AVX2 round kernel once and returns each lane's configuration and
// step count.
func (b *Block) KernelCall(seed uint64) (x0, x1, steps [BlockLanes]int) {
	for li := range BlockLanes {
		b.start(li, seed, li, 0)
	}
	roundsAVX2(b)
	return b.lanes.x0, b.lanes.x1, b.lanes.steps
}
