package protocols

import (
	"fmt"
	"math"
	"math/bits"

	"lvmajority/internal/cpufeat"
	"lvmajority/internal/rng"
)

// Lane widths of the lockstep kernel. The default is wide enough that the
// out-of-order window always has several independent lanes' instruction
// streams to overlap (the scalar batch kernel is latency-bound on one
// serial generator chain) while the whole working set — count planes,
// generator states, interaction counters — stays inside L1.
const (
	DefaultLockstepLanes = 128
	MaxLockstepLanes     = 256
)

// The top bit of a lane's step word is its dirty flag: set when a count
// update produced a zero, or the lane opens a fresh replicate, so that the
// next round runs the decide pass. The other bits count interactions.
const (
	dirtyBit = uint64(1) << 63
	stepMask = dirtyBit - 1
)

// kernelIters caps the group visits of one tick kernel call, in groups of
// eight lanes for ticks512 and four for ticksAVX2. The runtime never
// preempts assembly asynchronously, so a call must return within tens of
// microseconds even when every lane stays eligible, or every
// stop-the-world would wait for it: on a 2-core Sapphire Rapids VM, 2048
// visits to 128 eligible lanes take 43–51 µs in ticks512 and 37–52 µs in
// ticksAVX2.
const kernelIters = 2048

// planeBytes is the byte stride between two count planes: the tick kernels
// address state s's plane at s·planeBytes from plane 0. The count planes
// start on a cache line; the state-word and step planes, inside the
// engine, start 16 bytes past one, behind the allocation's header, so
// each of ticks512's 64-byte accesses to them spans two lines. Aligning
// them measured within noise.
const planeBytes = MaxLockstepLanes * 4

// TrialBlockLanes implements the consensus.BlockTrialer capability. It
// returns DefaultLockstepLanes when the compiled rule table has the
// lockstep shape — exactly four effective pairs, none of them diagonal,
// each moving one agent between two states, DoneWhenZero rules, and at
// most 255 states — which the 3-state approximate majority and ternary
// signaling compile to. It returns 0, trial-at-a-time on the batch loop,
// for every other table, and when the protocol fails to compile, so that
// Trial reports the error.
func (p *PopulationProtocol) TrialBlockLanes() int {
	if tab, err := p.compile(); err != nil || !tab.lockstep {
		return 0
	}
	return DefaultLockstepLanes
}

// NewTrialBlock validates the configuration once and returns a block
// runner advancing up to TrialBlockLanes trials in lockstep; it refuses a
// rule table without the lockstep shape. The runner is stateful (it owns
// the lane planes) and not safe for concurrent use; the pool builds one
// per worker. Replicate rep of a block draws only from
// rng.NewStream(seed, rep) — exactly the stream and exactly the draw
// sequence the scalar Trial would consume — so results are byte-identical
// to Trial, for every worker count and every lane packing.
func (p *PopulationProtocol) NewTrialBlock(n, delta int) (func(seed uint64, lo, hi int, wins []bool) error, error) {
	e, err := p.newLockstep(n, delta, DefaultLockstepLanes)
	if err != nil {
		return nil, err
	}
	return e.runBlock, nil
}

// lockstepEngine is the structure-of-arrays block engine of the lockstep
// shape. All per-lane state lives in fixed-size planes, one array per
// field (see lockstepLanes), so one lane's round touches one word of each
// plane, consecutive lanes share cache lines, and the rest of the round
// runs in registers.
//
// One round advances every active lane by exactly one effective
// interaction (or retires it), replaying the scalar batch loop's phases
// per lane: decide (budget, DoneWhenZero), weigh (the four pair weights),
// skip nulls (tick-by-tick uniforms or one geometric draw), and fire
// (Lemire bounded draw, pair scan, count update). The phases are fused
// into a single pass per lane: the generator state loads once per round
// into registers and every tick draw is an inlined rng.Next4, so a round
// costs four state loads and stores, a handful of count-plane accesses,
// and register arithmetic. The speedup over the scalar loop is
// instruction-level parallelism: consecutive lanes have no data
// dependence, so the CPU overlaps their rounds — but only as far as it can
// speculate past the round's branches, which is why sweep4 speculates in
// software and keeps the tick loop's exit the only data-dependent branch.
//
// Decided lanes retire immediately: their slot is refilled with the next
// replicate of the block while any remain, then swap-compacted away, so
// the tail of a block never serializes on stragglers.
//
// On amd64 CPUs with AVX2, for tables with at most four states and
// n(n−1) < 2³², an assembly tick kernel runs the tick regime instead:
// ticks512 in groups of eight lanes on CPUs with AVX-512 F and DQ, and
// ticksAVX2 in groups of four on the others. Each visit to a group gives
// every eligible lane of it one tick, and a call visits the groups
// round-robin. The two kernels keep one contract, which the rest of this
// comment states, so a lane draws the same whichever ran it. A lane is
// eligible when its step word is below the budget, so that its dirty flag
// is clear, and w, the sum of its four pair weights, has w < total ≤ 8w;
// kernelTakes is the same predicate in Go. A clear dirty flag means that
// no DoneWhenZero rule can have become true: every count update that
// makes a count zero sets the flag, which keeps the lane away from the
// kernel until the Go round's decide pass. Each tick draws r₁ and r₂
// speculatively. r₁ is
// effective iff (float64(r₁>>11)·2⁻⁵³)·total < float64(w), the negation of
// the batch loop's null test, computed exactly as Go does: r₁>>11 and w
// convert exactly, the scaling by 2⁻⁵³ is exact, only the multiply by
// total rounds, and nothing is fused. A null tick commits the one-draw
// state; an effective tick commits the two-draw state, picks the pair from
// the high word of r₂·w (Lemire's fast path, exact because w < 2³²) and
// applies its net count updates, setting the dirty flag when a count is
// zero afterwards. Every lane therefore draws exactly what the batch loop
// draws, and the kernel leaves ineligible lanes untouched.
//
// Hand-back: if an effective lane's low word of r₂·w is below w, the
// scalar Uint64N would enter its retry loop; the kernel then returns
// without committing that group (probability ≤ 2⁻³² per draw), and the Go
// round runs one full round on every lane. Otherwise, after each call the
// Go round advances every lane the kernel cannot take — the geometric
// regime, decisions, budgets, retirement, refill — until the kernel can
// take it again or it retires, so no lane holds its slot idle across
// calls. A call runs at most kernelIters group visits. Everywhere else
// (other CPUs, more than four states, n > 65536) the Go rounds are the
// whole engine.
type lockstepEngine struct {
	p   *PopulationProtocol
	tab *popTable

	a, b            int
	states          int
	maxInteractions int
	total           int64
	ftotal          float64
	lanes           int // R: lane capacity

	l lockstepLanes

	// kernel reports that the tick kernels can run this engine: at most
	// four states and total < 2³². kpair holds the byte offsets of the
	// count planes of pair i's states, s at 2i and t at 2i+1; kdelta[s][i]
	// is state s's net count change when pair i fires, and entries 4–7 are
	// zero, the index of a lane that does not fire. One 8-entry row serves
	// VPERMD with the indices of four lanes or of eight.
	kernel bool
	kpair  [8]int64
	kdelta [4][8]int32

	active  int
	nextRep int
	seed    uint64

	// ticks accumulates the interaction ticks of every finished lane
	// (including skipped nulls), the same accounting the scalar loop
	// reports from run; benchmarks read it to price one simulated event.
	ticks int64
	// kernelCalls counts tick kernel calls, and ran is the level of the
	// kernel the last one ran, for tests.
	kernelCalls int
	ran         cpufeat.Level
	// mark is the lanes' progress when kernelTicks last ran (see
	// kernelTicks); sweep4 zeroes it when it starts.
	mark progress
}

// progress fingerprints how far the active lanes have come: the sum of
// their interaction counters, the number of dirty flags, the active lane
// count and the next replicate. Counters only grow, and a dirty flag is
// set only by a tick, so between two fingerprints with no retirement the
// lanes are unchanged exactly when both sums are.
type progress struct {
	ticks, dirty uint64
	active, next int
}

// lockstepLanes holds the lanes in flight as fixed-size planes: lane li
// has the xoshiro256++ state words s0[li]…s3[li], the step word step[li]
// (the interaction counter, with the dirty flag in its top bit), the index
// win[li] of its result in the block's wins slice, and the count
// counts[s][li] of each state s. There are at least four count planes; a
// plane past NumStates holds 1 in every lane, so that the tick kernels'
// zero check after a count update, which reads all four planes, never
// finds a zero there, and its zero deltas leave it alone.
type lockstepLanes struct {
	s0, s1, s2, s3 [MaxLockstepLanes]uint64
	step           [MaxLockstepLanes]uint64
	win            [MaxLockstepLanes]int
	counts         [][MaxLockstepLanes]uint32
}

// kernelTakes reports whether the tick kernels can advance lane i, whose
// pair weights sum to w: the step word is below the budget and
// w < total ≤ 8w. The kernels test the same conditions on a group of
// lanes at once.
func (l *lockstepLanes) kernelTakes(i int, maxI, w, total int64) bool {
	return l.step[i] < uint64(maxI) && w < total && 8*w >= total
}

// move copies lane src into lane dst.
func (l *lockstepLanes) move(dst, src, states int) {
	l.s0[dst], l.s1[dst], l.s2[dst], l.s3[dst] = l.s0[src], l.s1[src], l.s2[src], l.s3[src]
	l.step[dst], l.win[dst] = l.step[src], l.win[src]
	for s := range states {
		l.counts[s][dst] = l.counts[s][src]
	}
}

// newLockstep validates the protocol and the (n, delta) configuration once
// and allocates the lane planes for lanes lanes, 1..MaxLockstepLanes:
// NewTrialBlock passes DefaultLockstepLanes, and tests other widths. It
// refuses a rule table without the lockstep shape. Everything runBlock
// touches afterwards is preallocated here, so the steady state of a block
// run performs no allocation at all.
func (p *PopulationProtocol) newLockstep(n, delta, lanes int) (*lockstepEngine, error) {
	tab, err := p.compile()
	if err != nil {
		return nil, err
	}
	if !tab.lockstep {
		return nil, fmt.Errorf("protocols: %q does not compile to the lockstep shape", p.ProtocolName)
	}
	if n < 2 {
		return nil, fmt.Errorf("protocols: population %d too small", n)
	}
	if delta < 0 || (n-delta)%2 != 0 || delta > n-2 {
		return nil, fmt.Errorf("protocols: infeasible gap %d for n=%d", delta, n)
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("protocols: population %d overflows the lockstep count planes", n)
	}
	states := p.NumStates
	b := (n - delta) / 2
	e := &lockstepEngine{
		p: p, tab: tab,
		a: n - b, b: b,
		states:          states,
		maxInteractions: p.maxInteractions(n),
		total:           int64(n) * int64(n-1),
		ftotal:          float64(int64(n) * int64(n-1)),
		lanes:           lanes,
	}
	e.l.counts = make([][MaxLockstepLanes]uint32, max(states, 4))
	for s := states; s < len(e.l.counts); s++ {
		for li := range e.l.counts[s] {
			e.l.counts[s][li] = 1
		}
	}
	e.kernel = states <= 4 && e.total < 1<<32
	if e.kernel {
		for i := 0; i < 4; i++ {
			e.kpair[2*i] = int64(tab.effS[i]) * planeBytes
			e.kpair[2*i+1] = int64(tab.effT[i]) * planeBytes
			for _, d := range tab.deltaPacked[2*i : 2*i+2] {
				e.kdelta[d>>32][i] += int32(uint32(d))
			}
		}
	}
	return e, nil
}

// initLane seeds lane li with replicate rep: the replicate's own
// index-keyed stream, fresh initial counts, a zero interaction counter
// marked dirty so the first round decides.
func (e *lockstepEngine) initLane(li, rep, lo int) {
	l := &e.l
	l.s0[li], l.s1[li], l.s2[li], l.s3[li] = rng.StreamState4(e.seed, uint64(rep))
	l.step[li] = dirtyBit
	l.win[li] = rep - lo
	for s := 0; s < e.states; s++ {
		l.counts[s][li] = 0
	}
	l.counts[e.p.MajorityState][li] += uint32(e.a)
	l.counts[e.p.MinorityState][li] += uint32(e.b)
}

// finishLane records lane li's outcome and frees its slot: refilled with
// the block's next replicate while any remain, otherwise swap-compacted
// against the last active lane. The caller re-examines index li, which now
// holds either the fresh replicate or the swapped-in lane.
func (e *lockstepEngine) finishLane(li int, won bool, wins []bool, hi, lo int) {
	wins[e.l.win[li]] = won
	e.ticks += int64(e.l.step[li] & stepMask)
	if e.nextRep < hi {
		e.initLane(li, e.nextRep, lo)
		e.nextRep++
		return
	}
	e.active--
	if last := e.active; li != last {
		e.l.move(li, last, e.states)
	}
}

// runBlock runs replicates [lo, hi), writing each outcome to wins[rep-lo].
// Blocks wider than the lane capacity are handled by refilling retired
// lanes, so any block size is accepted.
func (e *lockstepEngine) runBlock(seed uint64, lo, hi int, wins []bool) error {
	return e.run(seed, lo, hi, wins, cpufeat.Widest())
}

// run is runBlock with the widest tick kernel's level explicit: it lets
// that kernel run the tick regime where the kernels fit, and at Portable
// the Go rounds are the whole engine.
func (e *lockstepEngine) run(seed uint64, lo, hi int, wins []bool, k cpufeat.Level) error {
	if hi < lo {
		return fmt.Errorf("protocols: lockstep block [%d, %d) is inverted", lo, hi)
	}
	if len(wins) != hi-lo {
		return fmt.Errorf("protocols: lockstep block [%d, %d) with %d result slots", lo, hi, len(wins))
	}
	e.seed = seed
	e.active = min(hi-lo, e.lanes)
	e.nextRep = lo + e.active
	for li := 0; li < e.active; li++ {
		e.initLane(li, lo+li, lo)
	}
	if !e.kernel {
		k = cpufeat.Portable
	}
	return e.sweep4(lo, hi, wins, k)
}

// kernelTicks runs one call of the tick kernel of level k, AVX512 or AVX2,
// over the groups covering lanes [0, active) and reports whether the
// kernel refused a group. The pad lanes up to the next multiple of eight
// get a dirty step word first, which neither kernel ever takes.
//
// It panics when the lanes have not moved since its previous call: then
// that call advanced no lane and the hand-back pass after it skipped every
// lane as the kernel's, so the kernel and kernelTakes disagree about some
// lane, and every later pass would repeat the same nothing. Only a bug can
// produce that state; mc reports the panic as a TrialPanicError, where a
// loop would spin beyond the reach of any interrupt.
func (e *lockstepEngine) kernelTicks(active int, k cpufeat.Level) (refused bool) {
	now := progress{active: active, next: e.nextRep}
	for _, sd := range e.l.step[:active] {
		now.ticks += sd & stepMask
		now.dirty += sd >> 63
	}
	name, group := tickKernel(k)
	if now == e.mark {
		panic("protocols: lockstep engine stalled: " + name + " advanced no lane that kernelTakes assigns to it")
	}
	e.mark = now
	for li := active; li&7 != 0; li++ {
		e.l.step[li] = dirtyBit
	}
	e.kernelCalls++
	e.ran = k
	groups := (active + group - 1) / group
	if k == cpufeat.AVX512 {
		return ticks512(e, groups)
	}
	return ticksAVX2(e, groups)
}

// tickKernel names the tick kernel of level k, AVX512 or AVX2, and
// returns its group width in lanes.
func tickKernel(k cpufeat.Level) (name string, group int) {
	if k == cpufeat.AVX512 {
		return "ticks512", 8
	}
	return "ticksAVX2", 4
}

// sweep4 is the engine's round loop. The four pair weights stay in
// registers end to end, the pair scan and the two net count updates are
// straight-line code, and the decide pass is gated on the dirty flag, so
// it runs only on rounds that follow a count update that left a zero (or
// open a fresh replicate).
//
// Above Portable, each pass of the lanes first calls the tick kernel of
// level k. Unless the kernel refused, the pass is the hand-back: a lane
// the kernel can take is skipped, and any other lane runs rounds until the
// kernel can take it or it retires. After a refusal, and at Portable,
// every lane runs one round per pass. kernelTicks panics when a kernel
// call and its hand-back pass leave every lane as it was.
//
//lint:hotpath
func (e *lockstepEngine) sweep4(lo, hi int, wins []bool, k cpufeat.Level) error {
	e.mark = progress{}
	maxI := e.maxInteractions
	total, ftotal := e.total, e.ftotal
	tscale := float64(1<<53) / ftotal
	l := &e.l
	counts := l.counts
	deltaPk := &e.tab.deltaPacked
	// The pair wiring rides in one register; the rule tables load inside
	// the cold dirty branch. Everything the hot path keeps live has to
	// fit the register file, or the loop head turns into stack reloads.
	wire := e.tab.wire

	for active := e.active; active > 0; active = e.active {
		// adv is how far a lane's round moves the pass on: 0 in the
		// hand-back, which re-examines the lane.
		adv := 1
		if k != cpufeat.Portable && !e.kernelTicks(active, k) {
			adv = 0
		}
		for li := 0; li < active; {
			i := li & (MaxLockstepLanes - 1) // i == li: the mask only drops the bounds checks
			sd := l.step[i]
			step := int(sd & stepMask)
			// Budget before the decision, as in the scalar loop: a lane
			// whose final permitted interaction reaches consensus still
			// scores as undecided, because it never observes the final
			// state.
			if step >= maxI {
				e.finishLane(i, false, wins, hi, lo)
				active = e.active
				continue
			}
			if sd >= dirtyBit {
				l.step[i] = sd &^ dirtyBit
				winner := int32(-2)
				for _, rule := range e.tab.doneZero {
					var acc uint32
					for _, st := range rule.zero {
						acc |= counts[st][i]
					}
					if acc == 0 {
						winner = rule.winner
						break
					}
				}
				if winner != -2 {
					e.finishLane(i, winner == 0, wins, hi, lo)
					active = e.active
					continue
				}
			}

			w0 := int64(counts[wire&0xff][i]) * int64(counts[wire>>8&0xff][i])
			w1 := int64(counts[wire>>16&0xff][i]) * int64(counts[wire>>24&0xff][i])
			w2 := int64(counts[wire>>32&0xff][i]) * int64(counts[wire>>40&0xff][i])
			w3 := int64(counts[wire>>48&0xff][i]) * int64(counts[wire>>56][i])
			w := w0 + w1 + w2 + w3
			if adv == 0 && l.kernelTakes(i, int64(maxI), w, total) {
				li++
				continue
			}
			if w == 0 {
				// No selectable effective pair: the counts can never
				// change again, and the scalar loop would spin to the
				// budget. Charge the full budget; the next pass retires
				// the lane undecided.
				l.step[i] = uint64(maxI)
				li += adv
				continue
			}

			// The lane's generator runs in registers for the rest of the
			// round; every draw below is an inlined state-passing step.
			s0, s1, s2, s3 := l.s0[i], l.s1[i], l.s2[i], l.s3[i]
			var u uint64
			if w < total {
				if 8*w >= total {
					// Moderate null fraction: skip nulls tick by tick,
					// one uniform each, ending on the first effective
					// tick — cheaper than the geometric's logarithm.
					//
					// A naive "draw until effective" loop would exit on
					// a branch decided by the draw itself, mispredict on
					// most rounds and flush exactly the cross-lane work
					// the layout exists to expose. So each iteration
					// draws a speculative pair of uniforms and rolls the
					// generator back to the one-draw state when the
					// first tick was already effective: the stream
					// consumption matches the scalar draw-until-effective
					// loop exactly, while the loop body stays free of
					// data-dependent branches. n1/n2 classify the two
					// ticks with one integer subtract against thr, and
					// the surviving state is a mask blend; the only
					// data-dependent branch left is the loop-back when
					// both draws were nulls (~15% taken in the tick
					// regime, cheap to predict).
					//
					// thr approximates the integer form of the scalar
					// Float64 compare: fl(k·2⁻⁵³·total) is monotone in
					// the 53-bit draw k, so the compare is a threshold
					// test on k. thr — the hoisted reciprocal scale
					// 2⁵³/total times w, truncated — carries two
					// roundings plus the truncation and the predicate's
					// own rounding, so it sits within ±6 of the true
					// boundary (each error ≤ 2⁻⁵³ relative on a value
					// ≤ 2⁵³). Draws at least 9 away from thr classify
					// with pure integer arithmetic; the window around
					// it (hit with probability ~2⁻⁴⁹) falls back to
					// the original predicate, keeping classification
					// byte-identical to the scalar loop.
					fw := float64(w)
					thr := uint64(fw * tscale)
					blown := false
					for {
						var u1, u2 uint64
						var t0, t1, t2, t3 uint64
						u1, t0, t1, t2, t3 = rng.Next4(s0, s1, s2, s3)
						u2, s0, s1, s2, s3 = rng.Next4(t0, t1, t2, t3)
						k1 := u1 >> 11
						k2 := u2 >> 11
						n1 := ((k1 - thr) >> 63) ^ 1
						n2 := ((k2 - thr) >> 63) ^ 1
						if k1-thr+8 < 17 {
							n1 = 1
							if float64(k1)/(1<<53)*ftotal < fw {
								n1 = 0
							}
						}
						if k2-thr+8 < 17 {
							n2 = 1
							if float64(k2)/(1<<53)*ftotal < fw {
								n2 = 0
							}
						}
						m := -n1 // all ones when the first tick was a null
						s0 = t0 ^ (m & (t0 ^ s0))
						s1 = t1 ^ (m & (t1 ^ s1))
						s2 = t2 ^ (m & (t2 ^ s2))
						s3 = t3 ^ (m & (t3 ^ s3))
						step += int(n1)
						if step >= maxI {
							// Budget blown on the first null: the scalar
							// loop stops before drawing again, so only
							// the first draw is consumed.
							s0, s1, s2, s3 = t0, t1, t2, t3
							blown = true
							break
						}
						if n1&n2 == 0 {
							break
						}
						step++
						if step >= maxI {
							blown = true
							break
						}
					}
					if blown {
						l.step[i] = uint64(step)
						l.s0[i], l.s1[i], l.s2[i], l.s3[i] = s0, s1, s2, s3
						li += adv
						continue
					}
				} else {
					// Null-dominated state: one geometric draw replaces
					// the whole run of null ticks.
					remaining := maxI - step
					var nulls int
					nulls, s0, s1, s2, s3 = rng.GeometricCapped4(s0, s1, s2, s3, float64(w)/ftotal, remaining)
					if nulls >= remaining {
						l.step[i] = uint64(maxI)
						l.s0[i], l.s1[i], l.s2[i], l.s3[i] = s0, s1, s2, s3
						li += adv
						continue
					}
					step += nulls
				}
			}
			// The effective interaction itself consumes one tick.
			step++

			// Fire: Lemire bounded draw (fast path inline, rejection out
			// of line), then a branch-free scan of the register weights:
			// once the running remainder goes negative it stays negative,
			// so counting the non-negative prefixes (the inverted sign
			// bit) names the sampled pair. The draw lies under the total
			// weight (mhi < w), so the last pair needs no subtraction.
			u, s0, s1, s2, s3 = rng.Next4(s0, s1, s2, s3)
			mhi, mlo := bits.Mul64(u, uint64(w))
			if mlo < uint64(w) {
				mhi, s0, s1, s2, s3 = rng.Uint64NRetry4(s0, s1, s2, s3, mhi, mlo, uint64(w))
			}
			v := int64(mhi)
			v -= w0
			pair := int(^uint64(v) >> 63)
			v -= w1
			pair += int(^uint64(v) >> 63)
			v -= w2
			pair += int(^uint64(v) >> 63)

			// Two net updates per pair at a fixed stride; a result of
			// zero is a potential DoneWhenZero trigger and marks the
			// lane for the decide pass.
			d := pair * 2
			e0 := deltaPk[d]
			e1 := deltaPk[d+1]
			pa := &counts[e0>>32][i]
			na := *pa + uint32(e0)
			*pa = na
			pb := &counts[e1>>32][i]
			nb := *pb + uint32(e1)
			*pb = nb
			var dz uint64
			if na == 0 {
				dz = dirtyBit
			}
			if nb == 0 {
				dz = dirtyBit
			}

			l.step[i] = uint64(step) | dz
			l.s0[i], l.s1[i], l.s2[i], l.s3[i] = s0, s1, s2, s3
			li += adv
		}
	}
	return nil
}
