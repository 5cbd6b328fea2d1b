package protocols

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/cpufeat"
	"lvmajority/internal/rng"
	"lvmajority/internal/testutil"
)

// lockstepPath is one way a lockstep block can run: the engine at level k,
// whose tick kernel, if any, runs the tick regime where the shape allows.
type lockstepPath struct {
	name string
	k    cpufeat.Level
}

// lockstepPaths are the ways a lockstep block can run on this CPU: the
// dispatching engine, at the widest level, then each level the CPU runs,
// the widest first: ticks512 (avx512), ticksAVX2 (avx2) and the Go rounds
// alone (go).
var lockstepPaths = func() []lockstepPath {
	paths := []lockstepPath{{"dispatch", cpufeat.Widest()}}
	for _, k := range cpufeat.Levels() {
		name := k.String()
		if k == cpufeat.Portable {
			name = "go"
		}
		paths = append(paths, lockstepPath{name, k})
	}
	return paths
}()

// kernelPaths returns the paths of lockstepPaths that run one tick kernel
// each, the widest first, and skips the test when the CPU runs none.
func kernelPaths(t *testing.T) []lockstepPath {
	t.Helper()
	var ps []lockstepPath
	for _, p := range lockstepPaths[1:] {
		if p.k != cpufeat.Portable {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		t.Skip("no tick kernel runs on this CPU")
	}
	return ps
}

// blockOn returns p's block runner for (n, delta) at the given lane width
// at level k.
func blockOn(t testing.TB, p *PopulationProtocol, n, delta, lanes int, k cpufeat.Level) func(seed uint64, lo, hi int, wins []bool) error {
	t.Helper()
	e, err := p.newLockstep(n, delta, lanes)
	if err != nil {
		t.Fatal(err)
	}
	return func(seed uint64, lo, hi int, wins []bool) error {
		return e.run(seed, lo, hi, wins, k)
	}
}

// onPath is a lockstep protocol whose blocks have the given lane width and
// run at level k, so that the estimator tests reach every width and every
// level through consensus.
type onPath struct {
	*PopulationProtocol
	lanes int
	k     cpufeat.Level
}

func (p onPath) TrialBlockLanes() int { return p.lanes }

func (p onPath) NewTrialBlock(n, delta int) (func(seed uint64, lo, hi int, wins []bool) error, error) {
	e, err := p.newLockstep(n, delta, p.lanes)
	if err != nil {
		return nil, err
	}
	return func(seed uint64, lo, hi int, wins []bool) error {
		return e.run(seed, lo, hi, wins, p.k)
	}, nil
}

// runBatchOracle runs replicate rep the way the scalar batch kernel would
// inside the Monte-Carlo pool: on its own index-keyed stream.
func runBatchOracle(t testing.TB, p *PopulationProtocol, n, delta int, seed uint64, rep int) (bool, int) {
	t.Helper()
	won, steps, err := p.run(n, delta, rng.NewStream(seed, uint64(rep)))
	if err != nil {
		t.Fatal(err)
	}
	return won, steps
}

// checkLockstepMatchesBatch runs replicates [lo, hi) of p as one lockstep
// block of the given lane width on every path and checks every lane's win,
// and the block's tick total, against the batch kernel on the replicate's
// stream.
func checkLockstepMatchesBatch(t testing.TB, mk func() *PopulationProtocol, budget, n, delta, lanes, lo, hi int, seed uint64) {
	t.Helper()
	with := func() *PopulationProtocol {
		p := mk()
		if budget > 0 {
			p.MaxInteractionsFor = func(int) int { return budget }
		}
		return p
	}
	oracle := with()
	want := make([]bool, hi-lo)
	var wantTicks int64
	for rep := lo; rep < hi; rep++ {
		won, steps := runBatchOracle(t, oracle, n, delta, seed, rep)
		want[rep-lo] = won
		wantTicks += int64(steps)
	}
	for _, path := range lockstepPaths {
		p := with()
		e, err := p.newLockstep(n, delta, lanes)
		if err != nil {
			t.Fatal(err)
		}
		wins := make([]bool, hi-lo)
		if err := e.run(seed, lo, hi, wins, path.k); err != nil {
			t.Fatal(err)
		}
		for rep := lo; rep < hi; rep++ {
			if wins[rep-lo] != want[rep-lo] {
				t.Fatalf("%s %s n=%d delta=%d lanes=%d budget=%d block [%d,%d) seed %d rep %d: lockstep %v, batch %v",
					path.name, p.Name(), n, delta, lanes, budget, lo, hi, seed, rep, wins[rep-lo], want[rep-lo])
			}
		}
		if e.ticks != wantTicks {
			t.Fatalf("%s %s n=%d delta=%d lanes=%d budget=%d block [%d,%d) seed %d: lockstep accounted %d ticks, batch %d",
				path.name, p.Name(), n, delta, lanes, budget, lo, hi, seed, e.ticks, wantTicks)
		}
	}
}

// TestLockstepByteIdenticalToBatch is the engine's ground truth: every
// lane of a lockstep block must reproduce the scalar batch kernel's
// outcome for the same replicate stream, byte for byte, on every lockstep
// shape in the repository — including blocks larger than the lane width
// (exercising refill) and blocks smaller than it (exercising
// swap-compaction of a partially filled engine).
func TestLockstepByteIdenticalToBatch(t *testing.T) {
	makers := []func() *PopulationProtocol{NewThreeStateAM, NewTernarySignaling, newAMFirstExtinction}
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			for _, mk := range makers {
				oracle := mk()
				p := mk()
				for _, tc := range []struct{ n, delta int }{{16, 2}, {40, 4}, {61, 3}, {50, 0}} {
					for _, span := range []struct{ lo, hi int }{{0, 3}, {0, 8}, {5, 32}} {
						block := blockOn(t, p, tc.n, tc.delta, 8, path.k)
						wins := make([]bool, span.hi-span.lo)
						if err := block(9, span.lo, span.hi, wins); err != nil {
							t.Fatal(err)
						}
						for rep := span.lo; rep < span.hi; rep++ {
							want, _ := runBatchOracle(t, oracle, tc.n, tc.delta, 9, rep)
							if wins[rep-span.lo] != want {
								t.Fatalf("%s n=%d delta=%d rep=%d block [%d,%d): lockstep %v, batch %v",
									p.Name(), tc.n, tc.delta, rep, span.lo, span.hi, wins[rep-span.lo], want)
							}
						}
					}
				}
			}
		})
	}
}

// newAMFirstExtinction is the 3-state approximate majority decided as soon
// as one opinion dies out, blanks or not. One effective interaction can
// then decide a lane, so only the dirty flag the tick kernel sets on a
// zero count sends that lane to the decide pass in time.
func newAMFirstExtinction() *PopulationProtocol {
	p := NewThreeStateAM()
	p.ProtocolName = "3-state approximate majority, decided at the first extinction"
	p.Done = func(counts []int) (bool, int) {
		switch {
		case counts[amY] == 0:
			return true, 0
		case counts[amX] == 0:
			return true, 1
		default:
			return false, -1
		}
	}
	p.DoneWhenZero = []DoneRule{{Zero: []int{amY}, Winner: 0}, {Zero: []int{amX}, Winner: 1}}
	return p
}

// TestLockstepMatchesBatchInTickRegime runs populations large enough that
// most rounds are in the tick regime, which the tick kernels take, on the
// three lockstep shapes: full blocks, ragged ones, single lanes, the
// widest lanes, and budgets that bind mid-run.
func TestLockstepMatchesBatchInTickRegime(t *testing.T) {
	am, ternary := NewThreeStateAM, NewTernarySignaling
	for _, tc := range []struct {
		name                            string
		mk                              func() *PopulationProtocol
		budget, n, delta, lanes, lo, hi int
	}{
		{"am-1024", am, 0, 1024, 98, 128, 0, 300},
		{"am-256", am, 0, 256, 46, 128, 7, 200},
		{"am-1024-budget", am, 3000, 1024, 98, 64, 0, 100},
		{"am-300-lane1", am, 0, 300, 20, 1, 3, 9},
		{"am-300-lanes256", am, 0, 300, 2, 256, 0, 260},
		{"am-10000-budget", am, 20000, 10_000, 400, 16, 0, 20},
		{"ternary-1024", ternary, 0, 1024, 98, 128, 0, 200},
		{"ternary-255-lanes5", ternary, 0, 255, 11, 5, 1, 40},
		{"ternary-512-budget", ternary, 900, 512, 0, 32, 0, 70},
		{"am-first-extinction-300", newAMFirstExtinction, 0, 300, 4, 32, 0, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLockstepMatchesBatch(t, tc.mk, tc.budget, tc.n, tc.delta, tc.lanes, tc.lo, tc.hi, 41)
		})
	}
}

// FuzzLockstepMatchesBatch checks every path of a lockstep block against
// the batch kernel on the 3-state approximate majority, ternary signaling
// and the approximate majority decided at the first extinction: every
// lane's win and the block's tick total, for any population up to 300,
// gap, lane width, window, seed and interaction budget.
func FuzzLockstepMatchesBatch(f *testing.F) {
	f.Add(uint8(0), uint16(256), uint16(46), uint16(128), uint16(0), uint16(200), uint64(1), uint32(0))
	f.Add(uint8(1), uint16(300), uint16(30), uint16(7), uint16(5), uint16(40), uint64(2), uint32(0))
	f.Add(uint8(0), uint16(120), uint16(4), uint16(256), uint16(9), uint16(300), uint64(3), uint32(700))
	f.Add(uint8(2), uint16(60), uint16(2), uint16(16), uint16(0), uint16(33), uint64(4), uint32(0))
	f.Add(uint8(3), uint16(30), uint16(6), uint16(3), uint16(1), uint16(12), uint64(5), uint32(0))
	f.Add(uint8(1), uint16(2), uint16(0), uint16(1), uint16(0), uint16(4), uint64(6), uint32(1))
	f.Fuzz(func(t *testing.T, proto uint8, n, delta, lanes, lo, width uint16, seed uint64, budget uint32) {
		mk := []func() *PopulationProtocol{NewThreeStateAM, NewTernarySignaling, newAMFirstExtinction}[proto%3]
		nn := 2 + int(n)%299
		gap := int(delta) % (nn - 1)
		if (nn-gap)%2 != 0 {
			gap++
		}
		if gap > nn-2 {
			gap -= 2
		}
		lw := 1 + int(lanes)%MaxLockstepLanes
		first := int(lo) % 1000
		// Budgets up to 10⁵ interactions, or the protocol's own.
		checkLockstepMatchesBatch(t, mk, int(budget%100_001), nn, gap, lw, first, first+int(width)%301, seed)
	})
}

// xoshiroPrev inverts one xoshiro256++ step: it returns the state whose
// successor is (n0, n1, n2, n3).
func xoshiroPrev(n0, n1, n2, n3 uint64) (s0, s1, s2, s3 uint64) {
	a := bits.RotateLeft64(n3, -45) // s1 ^ s3
	s0 = n0 ^ a
	y := n1 ^ n2 // s1 ^ s1<<17
	s1 = y ^ y<<17 ^ y<<34 ^ y<<51
	s2 = n1 ^ s0 ^ s1
	s3 = a ^ s1
	return s0, s1, s2, s3
}

// craftedLane returns a generator state whose first draw is an effective
// tick at pair weight w of total and whose second draw is r2: it inverts
// one xoshiro256++ step from a successor with t0 = 0 and
// t3 = rotr(r2, 23), which draws rotl(t0 + t3, 23) + t0 = r2, and varies
// t1 until the first draw is effective.
func craftedLane(t *testing.T, r2 uint64, w, total int64) [4]uint64 {
	t.Helper()
	for t1 := uint64(1); t1 < 1000; t1++ {
		s0, s1, s2, s3 := xoshiroPrev(0, t1, 0x9e3779b97f4a7c15, bits.RotateLeft64(r2, -23))
		if u, _, _, _, _ := rng.Next4(s0, s1, s2, s3); float64(u>>11)/(1<<53)*float64(total) < float64(w) {
			if _, t0, _, _, t3 := rng.Next4(s0, s1, s2, s3); t0 != 0 || t3 != bits.RotateLeft64(r2, -23) {
				t.Fatalf("inverse step landed on t0 = %x, t3 = %x", t0, t3)
			}
			return [4]uint64{s0, s1, s2, s3}
		}
	}
	t.Fatal("no crafted state draws an effective first tick")
	return [4]uint64{}
}

// startLanes seeds lanes [0, k) of e with replicates [0, k) as run does,
// with no replicate left to refill from, so that a test can rewrite a
// lane's state before it calls sweep4.
func startLanes(e *lockstepEngine, seed uint64, k int) {
	e.seed, e.active, e.nextRep, e.ticks = seed, k, k, 0
	for li := range k {
		e.initLane(li, li, 0)
	}
}

// craftedEngine returns a one-lane lockstep engine for p at (n, delta)
// whose lane holds the given 3-state counts, step count and generator
// state.
func craftedEngine(t *testing.T, p *PopulationProtocol, n, delta int, counts [3]uint32, step uint64, state [4]uint64) *lockstepEngine {
	t.Helper()
	e, err := p.newLockstep(n, delta, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.kernel {
		t.Fatalf("the kernel does not fit %s", p.Name())
	}
	startLanes(e, 1, 1)
	l := &e.l
	l.s0[0], l.s1[0], l.s2[0], l.s3[0] = state[0], state[1], state[2], state[3]
	l.step[0] = step
	for s, c := range counts {
		l.counts[s][0] = c
	}
	return e
}

// craftedEnd is where a crafted lane ends: its outcome, its ticks, and
// its final generator state and counts.
type craftedEnd struct {
	won    bool
	ticks  int64
	state  [4]uint64
	counts [3]uint32
}

// finishCrafted runs a crafted engine's lane to its end at level k: with
// k's tick kernel, or on the Go rounds alone at Portable.
func finishCrafted(t *testing.T, e *lockstepEngine, k cpufeat.Level) craftedEnd {
	t.Helper()
	wins := make([]bool, 1)
	if err := e.sweep4(0, 1, wins, k); err != nil {
		t.Fatal(err)
	}
	if (k != cpufeat.Portable) != (e.kernelCalls > 0) {
		t.Fatalf("level %v: %d kernel calls", k, e.kernelCalls)
	}
	l := &e.l
	return craftedEnd{wins[0], e.ticks, [4]uint64{l.s0[0], l.s1[0], l.s2[0], l.s3[0]},
		[3]uint32{l.counts[0][0], l.counts[1][0], l.counts[2][0]}}
}

// TestLockstepKernelRefusal crafts a lane whose effective tick draws
// r₂ = 0, so that Lemire's low word 0 is below w and Uint64N would draw
// again: each tick kernel must refuse the group without committing it, and
// the engine must still agree with the Go rounds alone.
func TestLockstepKernelRefusal(t *testing.T) {
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			const n, delta = 1024, 98
			counts := [3]uint32{500, 400, 124} // X, Y, blank: w = 511,600 of 1,047,552
			state := craftedLane(t, 0, 511_600, n*(n-1))
			e := craftedEngine(t, NewThreeStateAM(), n, delta, counts, 10, state)
			if !e.kernelTicks(1, path.k) {
				t.Fatal("the kernel did not refuse a group whose Lemire draw retries")
			}
			if l := &e.l; l.step[0] != 10 || l.s0[0] != state[0] || l.s3[0] != state[3] || l.counts[2][0] != counts[2] {
				t.Fatalf("the refused group was committed: step %d, counts %d %d %d", l.step[0], l.counts[0][0], l.counts[1][0], l.counts[2][0])
			}
			got := finishCrafted(t, craftedEngine(t, NewThreeStateAM(), n, delta, counts, 10, state), path.k)
			want := finishCrafted(t, craftedEngine(t, NewThreeStateAM(), n, delta, counts, 10, state), cpufeat.Portable)
			if got != want {
				t.Fatalf("after a refusal the engine ends at %+v, the Go rounds alone at %+v", got, want)
			}
		})
	}
}

// TestLockstepKernelLemireHighWord crafts lanes whose first effective
// tick draws an r₂ with r₂·w landing exactly on each prefix sum of the
// pair weights, with a carry out of the low 32-bit products into the high
// word: the pair a kernel picks there hinges on that carry. Each lane
// then runs to its budget with each tick kernel and without one, and all
// must end in the same counts, generator state and tick total.
func TestLockstepKernelLemireHighWord(t *testing.T) {
	paths := kernelPaths(t)
	const n, delta = 60_000, 400
	counts := [3]uint32{24_000, 18_000, 18_000}
	mk := func() *PopulationProtocol {
		p := NewThreeStateAM()
		p.MaxInteractionsFor = func(int) int { return 3000 }
		return p
	}
	e := craftedEngine(t, mk(), n, delta, counts, 0, [4]uint64{1})
	var prefix [3]uint64
	var w uint64
	for i := range 4 {
		wi := uint64(counts[e.tab.effS[i]]) * uint64(counts[e.tab.effT[i]])
		if i < 3 {
			prefix[i] = w + wi
		}
		w += wi
	}
	for k, hi := range prefix {
		// The smallest r₂ with r₂·w ≥ hi·2⁶⁴, then the first r₂ from
		// there whose product carries and draws no retry.
		r2, rem := bits.Div64(hi, 0, w)
		if rem != 0 {
			r2++
		}
		for ; ; r2++ {
			h, lo := bits.Mul64(r2, w)
			if h != hi {
				t.Fatalf("prefix %d: no carrying r₂ with high word %d", k, hi)
			}
			p0, p1 := (r2&math.MaxUint32)*w, (r2>>32)*w
			if p1&math.MaxUint32+p0>>32 > math.MaxUint32 && lo >= w {
				break
			}
		}
		state := craftedLane(t, r2, int64(w), n*(n-1))
		want := finishCrafted(t, craftedEngine(t, mk(), n, delta, counts, 0, state), cpufeat.Portable)
		for _, path := range paths {
			if got := finishCrafted(t, craftedEngine(t, mk(), n, delta, counts, 0, state), path.k); got != want {
				t.Fatalf("prefix %d: with %s the lane ends at %+v, on the Go rounds alone at %+v", k, path.name, got, want)
			}
		}
	}
}

// TestLockstepKernelMarksZeroCounts crafts a lane of
// newAMFirstExtinction one interaction from its decision: X = 150, one Y,
// and an effective first tick whose r₂ = 1 picks the (X, Y) pair. Each
// tick kernel fires it, and the dirty flag it sets on Y's zero count must
// make the Go round decide the lane at once, as the batch kernel does.
func TestLockstepKernelMarksZeroCounts(t *testing.T) {
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			const n, delta = 300, 4
			counts := [3]uint32{150, 1, 149} // w = 22,799 of 89,700
			state := craftedLane(t, 1, 22_799, n*(n-1))
			got := finishCrafted(t, craftedEngine(t, newAMFirstExtinction(), n, delta, counts, 0, state), path.k)
			want := finishCrafted(t, craftedEngine(t, newAMFirstExtinction(), n, delta, counts, 0, state), cpufeat.Portable)
			if got != want || !got.won || got.ticks != 1 || got.counts != [3]uint32{150, 0, 150} {
				t.Fatalf("with the kernel the lane ends at %+v, on the Go rounds alone at %+v; want a win after one tick", got, want)
			}
		})
	}
}

// TestLockstepKernelEligibility gives one call of each tick kernel eight
// lanes, each failing at most one condition of the kernels' eligibility
// test: a dirty step word, the geometric regime and a spent budget. The
// kernel must leave exactly those lanes untouched and advance every other
// lane once per visit of its group, kernelIters/groups ticks, a lane with a
// zero count among them: its clean step word already says that no rule has
// fired.
func TestLockstepKernelEligibility(t *testing.T) {
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			e, err := NewThreeStateAM().newLockstep(60_000, 400, 8)
			if err != nil {
				t.Fatal(err)
			}
			startLanes(e, 2, 8)
			tick := [3]uint32{24_000, 18_000, 18_000}
			lanes := []struct {
				name   string
				counts [3]uint32
				step   uint64
				takes  bool
			}{
				{"eligible", tick, 0, true},
				{"zero blank", [3]uint32{30_000, 30_000, 0}, 0, true},
				{"dirty", tick, dirtyBit | 5, false},
				{"geometric", [3]uint32{59_000, 1, 999}, 0, false},
				{"budget spent", tick, uint64(e.maxInteractions), false},
				{"eligible", tick, 7, true},
				{"eligible", tick, 0, true},
				{"eligible", tick, 0, true},
			}
			l := &e.l
			for li, c := range lanes {
				l.step[li] = c.step
				for s, v := range c.counts {
					l.counts[s][li] = v
				}
			}
			before := *l
			before.counts = append([][MaxLockstepLanes]uint32(nil), l.counts...)
			if e.kernelTicks(len(lanes), path.k) {
				t.Fatal("the kernel refused a group")
			}
			_, group := tickKernel(path.k)
			ticks := uint64(kernelIters / ((len(lanes) + group - 1) / group))
			for li, c := range lanes {
				moved := l.s0[li] != before.s0[li] || l.s3[li] != before.s3[li] || l.step[li] != before.step[li] ||
					l.counts[0][li] != before.counts[0][li] || l.counts[1][li] != before.counts[1][li] || l.counts[2][li] != before.counts[2][li]
				if moved != c.takes {
					t.Errorf("lane %d (%s): kernel advanced it = %v, want %v", li, c.name, moved, c.takes)
				}
				if c.takes && l.step[li]-before.step[li] != ticks {
					t.Errorf("lane %d (%s): advanced %d ticks, want %d", li, c.name, l.step[li]-before.step[li], ticks)
				}
				var w int64
				for k := range 4 {
					w += int64(c.counts[e.tab.effS[k]]) * int64(c.counts[e.tab.effT[k]])
				}
				if got := before.kernelTakes(li, int64(e.maxInteractions), w, e.total); got != c.takes {
					t.Errorf("lane %d (%s): kernelTakes = %v, want %v", li, c.name, got, c.takes)
				}
			}
		})
	}
}

// TestLockstepKernelSelectionBound pins where the tick kernels stop: the
// dispatching engine runs the widest one the CPU has for n = 65536, where
// n(n−1) is just below 2³², and none for n = 65537. A gap of n/2 keeps the
// lanes in the tick regime, and a small budget keeps the trials short.
func TestLockstepKernelSelectionBound(t *testing.T) {
	for _, tc := range []struct {
		n, delta int
		kernel   bool
	}{{65536, 32768, true}, {65537, 32769, false}} {
		mk := func() *PopulationProtocol {
			p := NewThreeStateAM()
			p.MaxInteractionsFor = func(int) int { return 20_000 }
			return p
		}
		e, err := mk().newLockstep(tc.n, tc.delta, 8)
		if err != nil {
			t.Fatal(err)
		}
		if e.kernel != tc.kernel {
			t.Fatalf("n=%d: kernel fits = %v, want %v", tc.n, e.kernel, tc.kernel)
		}
		wins := make([]bool, 12)
		if err := e.runBlock(3, 0, 12, wins); err != nil {
			t.Fatal(err)
		}
		widest := cpufeat.Widest()
		if ran := e.kernelCalls > 0; ran != (tc.kernel && widest != cpufeat.Portable) {
			t.Fatalf("n=%d: %d kernel calls on a CPU at level %v", tc.n, e.kernelCalls, widest)
		}
		if e.kernelCalls > 0 && e.ran != widest {
			t.Fatalf("n=%d: the dispatching engine ran the %v kernel on a CPU at level %v", tc.n, e.ran, widest)
		}
		checkLockstepMatchesBatch(t, mk, 20_000, tc.n, tc.delta, 8, 0, 12, 3)
	}
}

// TestLockstepKernelRoundCap checks that one call of each tick kernel
// advances no lane by more than kernelIters ticks. Every lane starts
// mid-run, deep in the tick regime, and stays eligible for the whole call,
// so a lone group advances exactly kernelIters ticks and 128 lanes
// kernelIters/groups each, in 16 groups of eight or 32 of four. Both runs
// then finish on the Go rounds and must agree with runs that never called
// a kernel.
func TestLockstepKernelRoundCap(t *testing.T) {
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			_, group := tickKernel(path.k)
			for _, lanes := range []int{1, 128} {
				engine := func() *lockstepEngine {
					e, err := NewThreeStateAM().newLockstep(10_000, 400, lanes)
					if err != nil {
						t.Fatal(err)
					}
					startLanes(e, 8, lanes)
					for li := range lanes {
						e.l.step[li] = 0
						e.l.counts[0][li], e.l.counts[1][li], e.l.counts[2][li] = 4000, 3000, 3000
					}
					return e
				}
				e := engine()
				if e.kernelTicks(lanes, path.k) {
					t.Fatal("the kernel refused a group")
				}
				want := uint64(kernelIters / ((lanes + group - 1) / group))
				for li := range lanes {
					if got := e.l.step[li]; got != want || got > kernelIters {
						t.Fatalf("lanes=%d: one call advanced lane %d by %d ticks, want %d (cap %d)", lanes, li, got, want, kernelIters)
					}
				}
				kernelWins := make([]bool, lanes)
				if err := e.sweep4(0, lanes, kernelWins, path.k); err != nil {
					t.Fatal(err)
				}
				g := engine()
				goWins := make([]bool, lanes)
				if err := g.sweep4(0, lanes, goWins, cpufeat.Portable); err != nil {
					t.Fatal(err)
				}
				for li := range lanes {
					if kernelWins[li] != goWins[li] {
						t.Fatalf("lanes=%d lane %d: %v after a kernel call, %v on the Go rounds alone", lanes, li, kernelWins[li], goWins[li])
					}
				}
				if e.ticks != g.ticks {
					t.Fatalf("lanes=%d: %d ticks after a kernel call, %d on the Go rounds alone", lanes, e.ticks, g.ticks)
				}
			}
		})
	}
}

// TestLockstepStallPanics checks the guard against a kernel that disagrees
// with kernelTakes: when a kernel call and the pass after it leave every
// lane as it was, the next kernelTicks must panic, naming the kernel that
// ran and kernelTakes, instead of letting sweep4 spin. Lanes that have
// spent their budget are never a kernel's, so two calls with nothing in
// between replay that state.
func TestLockstepStallPanics(t *testing.T) {
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			e, err := NewThreeStateAM().newLockstep(1024, 98, 8)
			if err != nil {
				t.Fatal(err)
			}
			startLanes(e, 1, 8)
			for li := range 8 {
				e.l.step[li] = uint64(e.maxInteractions)
			}
			if e.kernelTicks(8, path.k) {
				t.Fatal("the kernel refused a group")
			}
			name, _ := tickKernel(path.k)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, name) || !strings.Contains(msg, "kernelTakes") {
					t.Fatalf("a second call with no progress recovered %q, want the stall panic naming %s", msg, name)
				}
			}()
			e.kernelTicks(8, path.k)
		})
	}
}

// TestLockstepTickAccounting checks that the engine's interaction-tick
// accounting (the benchmark denominator) equals the scalar kernel's
// reported interaction counts summed over the block.
func TestLockstepTickAccounting(t *testing.T) {
	oracle := NewThreeStateAM()
	const lo, hi = 0, 40
	var want int64
	for rep := lo; rep < hi; rep++ {
		_, steps := runBatchOracle(t, oracle, 60, 4, 33, rep)
		want += int64(steps)
	}
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			e, err := NewThreeStateAM().newLockstep(60, 4, 16)
			if err != nil {
				t.Fatal(err)
			}
			wins := make([]bool, hi-lo)
			if err := e.run(33, lo, hi, wins, path.k); err != nil {
				t.Fatal(err)
			}
			if e.ticks != want {
				t.Fatalf("lockstep accounted %d ticks, scalar batch kernel %d", e.ticks, want)
			}
		})
	}
}

// TestLockstepAllocationFree checks that a steady-state lockstep block
// run, refills and retirements included, performs no heap allocation on
// either path.
func TestLockstepAllocationFree(t *testing.T) {
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			e, err := NewThreeStateAM().newLockstep(256, 40, DefaultLockstepLanes)
			if err != nil {
				t.Fatal(err)
			}
			wins := make([]bool, 4*DefaultLockstepLanes)
			seed := uint64(0)
			mallocs := testutil.Mallocs(50, func() {
				seed++
				if err := e.run(seed, 0, len(wins), wins, path.k); err != nil {
					t.Fatal(err)
				}
			})
			if mallocs != 0 {
				t.Errorf("50 lockstep block runs allocated %d times, want 0", mallocs)
			}
		})
	}
}

// TestLockstepLaneCountInvariance pins the ISSUE's determinism contract:
// R = 1, 64, and 256 produce byte-identical per-trial outcomes, because
// every lane draws only from its replicate's index-keyed stream — the lane
// width decides packing, never randomness.
func TestLockstepLaneCountInvariance(t *testing.T) {
	const n, delta, seed = 80, 4, 17
	const reps = 300
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			var baseline []bool
			for _, lanes := range []int{1, 64, 256} {
				block := blockOn(t, NewThreeStateAM(), n, delta, lanes, path.k)
				wins := make([]bool, reps)
				if err := block(seed, 0, reps, wins); err != nil {
					t.Fatal(err)
				}
				if baseline == nil {
					baseline = wins
					continue
				}
				for rep := range wins {
					if wins[rep] != baseline[rep] {
						t.Fatalf("lanes=%d rep=%d: outcome %v differs from lanes=1 outcome %v",
							lanes, rep, wins[rep], baseline[rep])
					}
				}
			}
		})
	}
}

// TestLockstepRetirementExactlyOnce drives a protocol with wildly varying
// per-trial lengths through blocks that force both refill and compaction,
// and checks every replicate contributes exactly once and in its own slot:
// each outcome equals its scalar oracle, and re-running the same engine
// reproduces the block exactly (no state leaks between blocks).
func TestLockstepRetirementExactlyOnce(t *testing.T) {
	const lo, hi = 3, 3 + 3*8 + 5 // refill across several generations, ragged tail
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			for _, tc := range []struct {
				mk       func() *PopulationProtocol
				n, delta int
			}{{NewTernarySignaling, 30, 2}, {NewThreeStateAM, 200, 0}} {
				p := tc.mk()
				e, err := p.newLockstep(tc.n, tc.delta, 8)
				if err != nil {
					t.Fatal(err)
				}
				first := make([]bool, hi-lo)
				if err := e.run(77, lo, hi, first, path.k); err != nil {
					t.Fatal(err)
				}
				oracle := tc.mk()
				for rep := lo; rep < hi; rep++ {
					want, _ := runBatchOracle(t, oracle, tc.n, tc.delta, 77, rep)
					if first[rep-lo] != want {
						t.Fatalf("%s rep %d: lockstep %v, scalar oracle %v", p.Name(), rep, first[rep-lo], want)
					}
				}
				second := make([]bool, hi-lo)
				if err := e.run(77, lo, hi, second, path.k); err != nil {
					t.Fatal(err)
				}
				for i := range first {
					if first[i] != second[i] {
						t.Fatalf("%s rep %d: engine reuse changed the outcome", p.Name(), lo+i)
					}
				}
			}
		})
	}
}

// TestLockstepInteractionBudgetLaw mirrors the batch kernel's budget test
// through the block path: with a budget far below any decision, every
// lane runs out undecided and the block charges exactly the full budgets
// to the tick accounting, in the tick regime and in the geometric one.
func TestLockstepInteractionBudgetLaw(t *testing.T) {
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			for _, delta := range []int{2, 996} {
				p := NewThreeStateAM()
				p.MaxInteractionsFor = func(int) int { return 300 }
				e, err := p.newLockstep(1000, delta, 4)
				if err != nil {
					t.Fatal(err)
				}
				wins := make([]bool, 6)
				if err := e.run(1, 0, 6, wins, path.k); err != nil {
					t.Fatal(err)
				}
				for rep, won := range wins {
					if won {
						t.Errorf("delta=%d: replicate %d decided within a budget of 300", delta, rep)
					}
				}
				if want := int64(6 * 300); e.ticks != want {
					t.Errorf("delta=%d: block accounted %d ticks, want the full budgets %d", delta, e.ticks, want)
				}
			}
		})
	}
}

// TestLockstepKernelThroughEstimator checks the full dispatch stack:
// consensus.EstimateWinProbability must route a lockstep-shape protocol
// through the block path and — because lanes replay the batch kernel byte
// for byte — return the scalar Trial's estimate exactly, for every worker
// and lane count.
func TestLockstepKernelThroughEstimator(t *testing.T) {
	batch := perTrial{NewThreeStateAM()}
	want, err := consensus.EstimateWinProbability(batch, 100, 10, consensus.EstimateOptions{Trials: 500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			for _, workers := range []int{1, 3, 8} {
				for _, lanes := range []int{1, 64, 256} {
					p := onPath{NewThreeStateAM(), lanes, path.k}
					got, err := consensus.EstimateWinProbability(p, 100, 10, consensus.EstimateOptions{
						Trials:  500,
						Workers: workers,
						Seed:    13,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("workers=%d lanes=%d: lockstep estimate %+v, batch estimate %+v",
							workers, lanes, got, want)
					}
				}
			}
		})
	}
}

// TestLockstepDistributionallyMatchesPerEvent closes the loop against the
// replay oracle kernel with the same two-proportion z-test the
// batch-vs-per-event suite uses.
func TestLockstepDistributionallyMatchesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional comparison is slow")
	}
	const trials = 4000
	for _, path := range lockstepPaths {
		t.Run(path.name, func(t *testing.T) {
			for _, tc := range []struct{ n, delta int }{{60, 2}, {60, 8}} {
				wins := [2]int{}
				for k, p := range []consensus.Protocol{perEvent{NewThreeStateAM()}, onPath{NewThreeStateAM(), DefaultLockstepLanes, path.k}} {
					est, err := consensus.EstimateWinProbability(p, tc.n, tc.delta, consensus.EstimateOptions{
						Trials: trials,
						Seed:   31,
					})
					if err != nil {
						t.Fatal(err)
					}
					wins[k] = int(math.Round(est.P() * trials))
				}
				p1 := float64(wins[0]) / trials
				p2 := float64(wins[1]) / trials
				pool := (p1 + p2) / 2
				se := math.Sqrt(2 * pool * (1 - pool) / trials)
				if se == 0 {
					if wins[0] != wins[1] {
						t.Errorf("n=%d delta=%d: degenerate but unequal win counts %v", tc.n, tc.delta, wins)
					}
					continue
				}
				if z := math.Abs(p1-p2) / se; z > 4 {
					t.Errorf("n=%d delta=%d: per-event %.4f vs lockstep %.4f (z=%.2f > 4)",
						tc.n, tc.delta, p1, p2, z)
				}
			}
		})
	}
}

// TestTrialBlockLanesFollowsShape pins which rule tables the block engine
// serves: the lockstep shapes, the 3-state approximate majority and
// ternary signaling, in DefaultLockstepLanes-wide blocks, and no other
// table, which NewTrialBlock refuses. A protocol that fails to compile
// reports no width either, so that Trial reports its error.
func TestTrialBlockLanesFollowsShape(t *testing.T) {
	for _, tc := range []struct {
		mk    func() *PopulationProtocol
		lanes int
	}{
		{NewThreeStateAM, DefaultLockstepLanes},
		{NewTernarySignaling, DefaultLockstepLanes},
		{newAMFirstExtinction, DefaultLockstepLanes},
		{NewFourStateExact, 0},
		{newVoterProtocol, 0},
		{func() *PopulationProtocol { return &PopulationProtocol{ProtocolName: "bad", NumStates: 1} }, 0},
	} {
		p := tc.mk()
		if got := p.TrialBlockLanes(); got != tc.lanes {
			t.Errorf("%s: TrialBlockLanes = %d, want %d", p.Name(), got, tc.lanes)
		}
		if _, err := p.NewTrialBlock(20, 2); (err == nil) != (tc.lanes > 0) {
			t.Errorf("%s: NewTrialBlock error %v with block width %d", p.Name(), err, tc.lanes)
		}
	}
}
