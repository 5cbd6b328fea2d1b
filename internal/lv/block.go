package lv

import (
	"fmt"
	"math"

	"lvmajority/internal/cpufeat"
	"lvmajority/internal/rng"
)

// BlockLanes is the number of replicates a Block advances in lockstep:
// two groups of eight for the AVX-512 round kernel, or four groups of four
// for the AVX2 one. The AVX-512 kernel needs both groups in flight: one
// alone waits on latency, at 4.4 ns per event against 2.5 for two on a
// 2-core Sapphire Rapids VM. The AVX2 kernel, bound by its vector µops,
// runs as fast on four groups as on two.
const BlockLanes = 16

// kernelRounds caps the rounds one call of a round kernel runs per group.
// The runtime never preempts assembly asynchronously, so a call must
// return within tens of microseconds even when no lane stops, or every
// stop-the-world would wait for it: 1024 rounds of sixteen events take
// 40–45 µs in the AVX-512 kernel and 75–90 µs in the AVX2 one on a 2-core
// Sapphire Rapids VM.
const kernelRounds = 1024

// Block is the lockstep, winner-only LV engine: it runs many replicates of
// one chain and reports only whether each replicate's initial majority
// won, scored as consensus.LVProtocol scores Run's Outcome. For each
// replicate stream it fires exactly the events of Run and draws exactly
// the same numbers, so its results are byte-identical to the scalar
// kernel's for every block width, lane packing and round kernel.
//
// Each replicate in flight owns one lane: its generator state, its
// configuration and its step count, held in planes with one array per
// field. A round of the Go code, the Go round, advances every active lane
// by one event. Consecutive lanes have no data dependence, so the CPU
// overlaps their events, as far as it can speculate past the round's
// branches; the channel pick is therefore branch-free. A lane that stops
// retires at once: its slot takes the block's next replicate while any
// remain, and is otherwise filled from the last active lane, so the live
// lanes always fill [0, active) and the tail of a block never waits on
// stragglers. The Outcome accounting of Run (gap, event counts, population
// maximum) is not kept.
//
// On amd64, an assembly round kernel runs the rounds of the full groups of
// live lanes at the front of the planes, one event per lane per round, in
// the Go round's arithmetic: on a CPU with AVX-512, groups of eight while
// at least eight lanes are live, and otherwise, with AVX2, groups of four
// while at least four are. A lane past the last full group waits for the
// Go round. Before a group fires, a kernel hands back, returning to Go, if
// a lane has x₀ = 0, x₁ = 0, steps ≥ maxSteps or a count outside
// [1, 2⁵¹]; after drawing the group's uniforms it hands back without
// committing the group unless every lane has u < total, which fails for a
// zero total, for a total that overflows to +Inf and for Run's
// last-non-zero-channel fallback. A group already committed stays
// committed: lanes are independent, so the next Go round simply advances
// every lane by one more event, retiring, refilling and falling back as
// Run does. The kernels' sums are the Go round's, operation for operation
// and never fused, and every integer they convert is below 2⁵³, so each
// lane fires the event the Go round would. A call runs at most
// kernelRounds rounds per group.
type Block struct {
	// The planes come first, on the object's base. Block's size class is
	// a multiple of 64 bytes, so the AVX-512 kernel's 64-byte groups do
	// not straddle cache lines.
	lanes blockLanes
	// Rates with the sign of −0.0 cleared: the channel pick compares
	// bit patterns, which order non-negative values only. A −0.0 rate
	// yields −0.0 propensities, which Run's scan skips like +0.0.
	params   Params
	initial  State
	majority int
	maxSteps int
	coinFlip bool
	// dx0[k], dx1[k] are the changes to x₀ and x₁ when channel k fires.
	dx0, dx1 [NumEventKinds]int32
}

// blockLanes holds the replicates in flight as planes: lane li has the
// xoshiro256++ state words s0[li]…s3[li], the configuration (x0[li],
// x1[li]), the step count steps[li], and the index win[li] of its result
// in the block's wins slice.
type blockLanes struct {
	s0, s1, s2, s3 [BlockLanes]uint64
	x0, x1, steps  [BlockLanes]int
	win            [BlockLanes]int
}

// NewBlock validates params and initial once and returns a Block for the
// chain from initial. The initial majority is species 0 unless x₁ > x₀, as
// in Run, and a replicate wins when its majority survives alone. maxSteps
// caps each replicate's reactions (0 means DefaultMaxSteps); a replicate
// that exhausts it, or that can fire no reaction, loses. Double extinction
// loses, unless coinFlip is set: then one Float64() < 0.5 drawn from the
// replicate's stream after its run decides it.
func NewBlock(params Params, initial State, maxSteps int, coinFlip bool) (*Block, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	params.Beta, params.Delta = math.Abs(params.Beta), math.Abs(params.Delta)
	for i := range 2 {
		params.Alpha[i], params.Gamma[i] = math.Abs(params.Alpha[i]), math.Abs(params.Gamma[i])
	}
	b := &Block{params: params, initial: initial, maxSteps: maxSteps, coinFlip: coinFlip}
	if initial.X1 > initial.X0 {
		b.majority = 1
	}
	s := State{X0: 2, X1: 2}
	for k := range b.dx0 {
		t := apply(params, s, EventKind(k))
		b.dx0[k], b.dx1[k] = int32(t.X0-s.X0), int32(t.X1-s.X1)
	}
	return b, nil
}

// Run runs replicates [lo, hi), replicate rep on rng.NewStream(seed, rep),
// and writes whether its initial majority won to wins[rep-lo]. It has the
// shape of an mc.BlockFunc. A Block is not safe for concurrent use.
func (b *Block) Run(seed uint64, lo, hi int, wins []bool) error {
	return b.run(seed, lo, hi, wins, cpufeat.Widest())
}

// run is Run with the widest round kernel's level explicit: Portable makes
// the Go round the whole engine.
func (b *Block) run(seed uint64, lo, hi int, wins []bool, k cpufeat.Level) error {
	if hi < lo || len(wins) != hi-lo {
		return fmt.Errorf("lv: block [%d, %d) with %d result slots", lo, hi, len(wins))
	}
	active := min(hi-lo, BlockLanes)
	for li := range active {
		b.start(li, seed, lo+li, lo)
	}
	next := lo + active
	p, maxSteps := b.params, b.maxSteps
	beta, dlt, a0, a1, g0, g1 := p.Beta, p.Delta, p.Alpha[0], p.Alpha[1], p.Gamma[0], p.Gamma[1]
	dx0, dx1, l := &b.dx0, &b.dx1, &b.lanes

	//lint:hotpath
	for active > 0 {
		// The widest kernel with a full group of live lanes runs first.
		switch {
		case k >= cpufeat.AVX512 && active >= 8:
			rounds512(b, active/8)
		case k >= cpufeat.AVX2 && active >= 4:
			roundsAVX2(b, active/4)
		}
		// The Go round: every active lane stops or fires one event.
		for li := 0; li < active; {
			i := li & (BlockLanes - 1) // i == li: the mask only drops the bounds checks
			x0, x1 := l.x0[i], l.x1[i]
			// Consensus before the budget, as in Run.
			if x0 == 0 || x1 == 0 || l.steps[i] >= maxSteps {
				wins[l.win[i]] = b.won(i)
				if next < hi {
					b.start(i, seed, next, lo)
					next++
				} else {
					active--
					l.move(i, active)
				}
				continue
			}

			// Prefix sums of the propensities, in propensities()' order
			// and association. Every product and halving is rounded on
			// its own: the explicit conversions forbid fused
			// multiply-adds, which would round differently from Run.
			fx0, fx1 := float64(x0), float64(x1)
			c0 := float64(beta * fx0)
			c1 := c0 + float64(beta*fx1)
			c2 := c1 + float64(dlt*fx0)
			c3 := c2 + float64(dlt*fx1)
			c4 := c3 + float64(float64(a0*fx0)*fx1)
			c5 := c4 + float64(float64(a1*fx0)*fx1)
			c6 := c5 + float64(float64(float64(g0*fx0)*(fx0-1))/2)
			total := c6 + float64(float64(float64(g1*fx1)*(fx1-1))/2)
			if total <= 0 {
				// All rates zero: the chain never reaches consensus.
				// Charge the budget so the next round retires the lane.
				l.steps[i] = maxSteps
				li++
				continue
			}

			// Run's scan picks the first channel whose prefix sum
			// exceeds u. The sums are non-decreasing and non-negative,
			// so that channel is the count of sums ≤ u, and for
			// non-negative floats c ≤ u exactly when bits(u) − bits(c)
			// has a clear sign bit.
			u, s0, s1, s2, s3 := rng.Next4(l.s0[i], l.s1[i], l.s2[i], l.s3[i])
			ub := math.Float64bits(float64(float64(u>>11) / (1 << 53) * total))
			above := (ub-math.Float64bits(c0))>>63 + (ub-math.Float64bits(c1))>>63 +
				(ub-math.Float64bits(c2))>>63 + (ub-math.Float64bits(c3))>>63 +
				(ub-math.Float64bits(c4))>>63 + (ub-math.Float64bits(c5))>>63 +
				(ub-math.Float64bits(c6))>>63 + (ub-math.Float64bits(total))>>63
			k := NumEventKinds - int(above)
			if above == 0 {
				k = b.lastChannel(x0, x1)
			}
			// k < NumEventKinds = 8: the mask only drops the bounds check.
			l.s0[i], l.s1[i], l.s2[i], l.s3[i] = s0, s1, s2, s3
			l.x0[i] = x0 + int(dx0[k&(NumEventKinds-1)])
			l.x1[i] = x1 + int(dx1[k&(NumEventKinds-1)])
			l.steps[i]++
			li++
		}
	}
	return nil
}

// start seeds lane li with replicate rep of the block starting at lo.
func (b *Block) start(li int, seed uint64, rep, lo int) {
	l := &b.lanes
	l.s0[li], l.s1[li], l.s2[li], l.s3[li] = rng.StreamState4(seed, uint64(rep))
	l.x0[li], l.x1[li], l.steps[li], l.win[li] = b.initial.X0, b.initial.X1, 0, rep-lo
}

// move copies lane src into lane dst.
func (l *blockLanes) move(dst, src int) {
	l.s0[dst], l.s1[dst], l.s2[dst], l.s3[dst] = l.s0[src], l.s1[src], l.s2[src], l.s3[src]
	l.x0[dst], l.x1[dst], l.steps[dst], l.win[dst] = l.x0[src], l.x1[src], l.steps[src], l.win[src]
}

// won scores stopped lane li as consensus.LVProtocol scores Run's Outcome.
func (b *Block) won(li int) bool {
	l := &b.lanes
	x0, x1 := l.x0[li], l.x1[li]
	if x0 != 0 && x1 != 0 {
		return false // budget exhausted or no reaction possible
	}
	w := State{X0: x0, X1: x1}.Winner()
	if w == -1 && b.coinFlip {
		u, _, _, _, _ := rng.Next4(l.s0[li], l.s1[li], l.s2[li], l.s3[li])
		return float64(u>>11)/(1<<53) < 0.5
	}
	return w == b.majority
}

// lastChannel is Run's choice when u is not below the total (possible only
// through rounding, or a total that overflows to +Inf): the last channel
// with non-zero propensity.
func (b *Block) lastChannel(x0, x1 int) int {
	props, _ := propensities(b.params, State{X0: x0, X1: x1})
	k := NumEventKinds - 1
	for k > 0 && props[k] == 0 {
		k--
	}
	return k
}
