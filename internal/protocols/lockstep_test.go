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
// stream. It returns the engines, in lockstepPaths order.
func checkLockstepMatchesBatch(t testing.TB, mk func() *PopulationProtocol, budget, n, delta, lanes, lo, hi int, seed uint64) []*lockstepEngine {
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
	var engines []*lockstepEngine
	for _, path := range lockstepPaths {
		p := with()
		e, err := p.newLockstep(n, delta, lanes)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
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
	return engines
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

// TestLockstepDefersNullRuns checks that the null-dominated branch defers
// its geometric draws at AVX512 and draws them in place at every other
// level. Under the protocol's own budget, a 3-state approximate majority
// block at n = 1024, δ = 98 never comes near it, so every path at AVX512
// must defer every draw. A budget of 20,000 interactions cuts some of the
// same trials short in their null-dominated tail, where trials of 12,000
// to 28,000 interactions end: there those paths must also draw in place,
// where a deferred run could reach the budget, and every path must still
// match the batch kernel's wins and ticks.
func TestLockstepDefersNullRuns(t *testing.T) {
	const n, delta, budget = 1024, 98, 20_000
	for i, e := range checkLockstepMatchesBatch(t, NewThreeStateAM, 0, n, delta, 128, 0, 256, 41) {
		if path := lockstepPaths[i]; path.k == cpufeat.AVX512 && (e.deferred == 0 || e.inPlace != 0) {
			t.Errorf("%s: %d geometric draws deferred, %d in place; want every one deferred",
				path.name, e.deferred, e.inPlace)
		} else if path.k != cpufeat.AVX512 && (e.deferred != 0 || e.inPlace == 0) {
			t.Errorf("%s: %d geometric draws deferred, %d in place; want every one in place",
				path.name, e.deferred, e.inPlace)
		}
	}
	oracle := NewThreeStateAM()
	oracle.MaxInteractionsFor = func(int) int { return budget }
	cut := 0
	for rep := range 256 {
		if _, steps := runBatchOracle(t, oracle, n, delta, 41, rep); steps == budget {
			cut++
		}
	}
	if cut == 0 {
		t.Fatalf("a budget of %d cut no trial short", budget)
	}
	for i, e := range checkLockstepMatchesBatch(t, NewThreeStateAM, budget, n, delta, 128, 0, 256, 41) {
		if path := lockstepPaths[i]; path.k == cpufeat.AVX512 && (e.deferred == 0 || e.inPlace == 0) {
			t.Errorf("budget %d, %s: %d geometric draws deferred, %d in place; want both",
				budget, path.name, e.deferred, e.inPlace)
		}
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
	// Budgets near the median trial length, which cut trials short in
	// their null-dominated tails and make every path draw some null runs
	// in place.
	f.Add(uint8(0), uint16(298), uint16(30), uint16(63), uint16(0), uint16(100), uint64(7), uint32(4175))
	f.Add(uint8(1), uint16(248), uint16(10), uint16(63), uint16(0), uint16(100), uint64(7), uint32(3969))
	// Budgets that bind in the tick regime, where many lanes reach their
	// last permitted tick on a null first tick: ticks512 must then stop
	// before the second tick of its visit.
	f.Add(uint8(0), uint16(200), uint16(10), uint16(63), uint16(0), uint16(100), uint64(8), uint32(150))
	f.Add(uint8(1), uint16(254), uint16(0), uint16(31), uint16(0), uint16(64), uint64(9), uint32(301))
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

// craftedDraws returns a generator state whose first `draws` draws pass ok
// and whose next draw is last: it inverts `draws` xoshiro256++ steps from
// a state x with x0 = 0 and x3 = rotr(last, 23), which draws
// rotl(x0 + x3, 23) + x0 = last, and varies x1 until ok accepts the draws
// before it.
func craftedDraws(t *testing.T, last uint64, draws int, ok func(draws []uint64) bool) [4]uint64 {
	t.Helper()
	d := make([]uint64, draws)
	for x1 := uint64(1); x1 < 10_000; x1++ {
		x := [4]uint64{0, x1, 0x9e3779b97f4a7c15, bits.RotateLeft64(last, -23)}
		s0, s1, s2, s3 := x[0], x[1], x[2], x[3]
		for range draws {
			s0, s1, s2, s3 = xoshiroPrev(s0, s1, s2, s3)
		}
		state := [4]uint64{s0, s1, s2, s3}
		for j := range d {
			d[j], s0, s1, s2, s3 = rng.Next4(s0, s1, s2, s3)
		}
		if [4]uint64{s0, s1, s2, s3} != x {
			t.Fatalf("%d inverse steps landed on %x, want %x", draws, [4]uint64{s0, s1, s2, s3}, x)
		}
		if ok(d) {
			return state
		}
	}
	t.Fatalf("no crafted state draws %d accepted draws before %#x", draws, last)
	return [4]uint64{}
}

// fires reports whether draw r makes an effective tick at pair weight w of
// total, as the batch loop's null test decides it.
func fires(r uint64, w, total int64) bool {
	return float64(r>>11)/(1<<53)*float64(total) < float64(w)
}

// craftedLane returns a generator state whose first draw is an effective
// tick at pair weight w of total and whose second draw is r2.
func craftedLane(t *testing.T, r2 uint64, w, total int64) [4]uint64 {
	t.Helper()
	return craftedDraws(t, r2, 1, func(d []uint64) bool { return fires(d[0], w, total) })
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

// TestLockstepFlushesBeforeTicks crafts a lane in the tick regime whose
// step word is 40 ticks from its budget but which holds a pending null run
// of 30 ticks, so that only 10 remain. Every path must resolve the run,
// with rng.GeometricBatch at its own level, before its first pass reads
// the step word, and end the lane exactly as one whose step word already
// holds the run.
func TestLockstepFlushesBeforeTicks(t *testing.T) {
	const n, delta, budget = 1024, 98, 1000
	counts := [3]uint32{500, 400, 124} // X, Y, blank: w = 511,600 of 1,047,552
	state := [4]uint64{1, 2, 3, 4}
	mk := func() *PopulationProtocol {
		p := NewThreeStateAM()
		p.MaxInteractionsFor = func(int) int { return budget }
		return p
	}
	for _, path := range lockstepPaths[1:] {
		t.Run(path.name, func(t *testing.T) {
			pending := craftedEngine(t, mk(), n, delta, counts, budget-40, state)
			const q = 0.9
			pending.nullU[0], pending.nullQ[0] = math.Pow(q, 30.5), q // a run of ⌊30.5⌋ ticks
			pending.pending, pending.reserve[0] = 1, 1
			got := finishCrafted(t, pending, path.k)
			want := finishCrafted(t, craftedEngine(t, mk(), n, delta, counts, budget-10, state), path.k)
			if got != want || want.won || want.ticks != budget {
				t.Fatalf("with a pending run the lane ends at %+v, with the run in its step word at %+v; want both undecided at the budget, %d ticks",
					got, want, budget)
			}
		})
	}
}

// newStalling is a lockstep table that stalls undecided: an X agent turns
// blank on meeting a Y and a blank turns X on meeting an X, Y agents never
// change, and the one DoneWhenZero rule (no Y left) never fires. At δ = 0 a
// lane's X count drifts to zero, where no pair is effective, and the
// engines charge the lane its full budget.
func newStalling() *PopulationProtocol {
	p := NewThreeStateAM()
	p.ProtocolName = "stalling X-blank exchange"
	p.Rule = func(a, b int) (int, int) {
		switch {
		case a == amX && b == amY:
			return amBlank, amY
		case a == amY && b == amX:
			return amY, amBlank
		case a == amX && b == amBlank, a == amBlank && b == amX:
			return amX, amX
		default:
			return a, b
		}
	}
	p.Done = func(counts []int) (bool, int) { return counts[amY] == 0, 0 }
	p.DoneWhenZero = []DoneRule{{Zero: []int{amY}, Winner: 0}}
	return p
}

// TestLockstepFlushesBeforeStallCharge runs newStalling on every path. At
// AVX512, in the hand-back, a lane that defers a null run and then fires
// its last X away meets the stall charge with the run pending, and must
// resolve it first: every lane then ends at the budget, as in the batch
// kernel.
func TestLockstepFlushesBeforeStallCharge(t *testing.T) {
	const n, reps = 64, 256
	budget := int64(newStalling().maxInteractions(n))
	for i, e := range checkLockstepMatchesBatch(t, newStalling, 0, n, 0, 64, 0, reps, 9) {
		if path := lockstepPaths[i]; (path.k == cpufeat.AVX512 && e.deferred == 0) || e.ticks != reps*budget {
			t.Errorf("%s: %d null runs deferred and %d ticks; want some deferred at avx512 and every lane stalled, %d ticks",
				path.name, e.deferred, e.ticks, reps*budget)
		}
	}
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

// ticksPerVisit is the most ticks the tick kernel of level k gives an
// eligible lane per visit of its group: two in ticks512, which draws
// sweep4's speculative pair, and one in ticksAVX2.
func ticksPerVisit(k cpufeat.Level) int {
	if k == cpufeat.AVX512 {
		return 2
	}
	return 1
}

// laneWords are one lane's words in the planes a tick kernel writes.
type laneWords struct {
	state  [4]uint64
	step   uint64
	counts [4]uint32
}

// lane reads lane li's words.
func (l *lockstepLanes) lane(li int) laneWords {
	x := laneWords{state: [4]uint64{l.s0[li], l.s1[li], l.s2[li], l.s3[li]}, step: l.step[li]}
	for s := range x.counts {
		x.counts[s] = l.counts[s][li]
	}
	return x
}

// weights returns the pair weights of x's counts under e's table, and
// their sum w.
func (x laneWords) weights(e *lockstepEngine) (pw [4]int64, w int64) {
	for i := range pw {
		pw[i] = int64(x.counts[e.tab.effS[i]]) * int64(x.counts[e.tab.effT[i]])
		w += pw[i]
	}
	return pw, w
}

// setLane writes lane li's words.
func (l *lockstepLanes) setLane(li int, x laneWords) {
	l.s0[li], l.s1[li], l.s2[li], l.s3[li] = x.state[0], x.state[1], x.state[2], x.state[3]
	l.step[li] = x.step
	for s, c := range x.counts {
		l.counts[s][li] = c
	}
}

// modelVisit is one visit of a tick kernel to an eligible lane x of e, in
// Go: it gives the lane up to m ticks and reports false when the visit
// would refuse the lane's group. A tick draws r and is effective iff the
// batch loop's null test says so; an effective tick takes the next draw
// as its Lemire draw, fires the pair it picks (with the batch loop's
// table, not the kernels' packed deltas) and ends the visit, and the dirty
// flag marks a zero count afterwards. A null tick is followed by another
// while fewer than m ticks have run and the step word stays below the
// budget.
func modelVisit(e *lockstepEngine, x laneWords, m int) (laneWords, bool) {
	w, sum := x.weights(e)
	s0, s1, s2, s3 := x.state[0], x.state[1], x.state[2], x.state[3]
	for range m {
		var r uint64
		r, s0, s1, s2, s3 = rng.Next4(s0, s1, s2, s3)
		x.state = [4]uint64{s0, s1, s2, s3}
		x.step++
		if fires(r, sum, e.total) {
			r, s0, s1, s2, s3 = rng.Next4(s0, s1, s2, s3)
			x.state = [4]uint64{s0, s1, s2, s3}
			hi, lo := bits.Mul64(r, uint64(sum))
			if lo < uint64(sum) {
				return x, false
			}
			pair, prefix := 0, int64(0)
			for _, wi := range w[:3] {
				if prefix += wi; uint64(prefix) <= hi {
					pair++
				}
			}
			k := e.tab.eff[pair]
			x.counts[e.tab.effS[pair]]--
			x.counts[e.tab.effT[pair]]--
			x.counts[e.tab.ni[k]]++
			x.counts[e.tab.nr[k]]++
			for _, c := range x.counts {
				if c == 0 {
					x.step |= dirtyBit
				}
			}
			break
		}
		if x.step >= uint64(e.maxInteractions) {
			break
		}
	}
	return x, true
}

// modelKernelCall is kernelTicks' call of the tick kernel of level k, with
// each visit modelled by modelVisit: it pads the lanes as kernelTicks
// does, visits the groups round-robin and returns after kernelIters
// visits, after a full circuit of groups with no eligible lane, or when it
// refuses a group, which it leaves uncommitted.
func modelKernelCall(e *lockstepEngine, active int, k cpufeat.Level) (refused bool) {
	l := &e.l
	for li := active; li&7 != 0; li++ {
		l.step[li] = dirtyBit
	}
	_, group := tickKernel(k)
	groups := (active + group - 1) / group
	next := make([]laneWords, group)
	for visit, g, idle := 0, 0, 0; visit < kernelIters; visit, g = visit+1, (g+1)%groups {
		eligible := false
		for j := range next {
			li := g*group + j
			next[j] = l.lane(li)
			if _, w := next[j].weights(e); !l.kernelTakes(li, int64(e.maxInteractions), w, e.total) {
				continue
			}
			eligible = true
			var ok bool
			if next[j], ok = modelVisit(e, next[j], ticksPerVisit(k)); !ok {
				return true
			}
		}
		if !eligible {
			if idle++; idle == groups {
				return false
			}
			continue
		}
		idle = 0
		for j, x := range next {
			l.setLane(g*group+j, x)
		}
	}
	return false
}

// checkKernelCall runs one call of the tick kernel of level k over lanes
// [0, active) of kernel and the same call's model over those of model, two
// engines in the same state, and checks that both refused or neither, and
// that every lane ends with the same words. It returns the lanes' ticks.
func checkKernelCall(t *testing.T, kernel, model *lockstepEngine, active int, k cpufeat.Level) []uint64 {
	t.Helper()
	before := make([]uint64, active)
	copy(before, kernel.l.step[:active])
	refused, want := kernel.kernelTicks(active, k), modelKernelCall(model, active, k)
	if refused != want {
		t.Fatalf("the kernel refused = %v, its model %v", refused, want)
	}
	ticks := make([]uint64, active)
	for li := range active {
		if got, want := kernel.l.lane(li), model.l.lane(li); got != want {
			t.Fatalf("lane %d ends at %+v, in the model at %+v", li, got, want)
		}
		ticks[li] = (kernel.l.step[li] &^ dirtyBit) - (before[li] &^ dirtyBit)
	}
	return ticks
}

// TestLockstepKernelEligibility gives one call of each tick kernel eight
// lanes, each failing at most one condition of the kernels' eligibility
// test: a dirty step word, the geometric regime and a spent budget. The
// kernel must leave exactly those lanes untouched, a lane with a zero count
// among the others: its clean step word already says that no rule has
// fired. Every other lane must end where modelKernelCall puts it, with
// ticks512 taking more than one tick per visit.
func TestLockstepKernelEligibility(t *testing.T) {
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
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
				{"budget spent", tick, 0, false},
				{"eligible", tick, 7, true},
				{"eligible", tick, 0, true},
				{"eligible", tick, 0, true},
			}
			engine := func() *lockstepEngine {
				e, err := NewThreeStateAM().newLockstep(60_000, 400, 8)
				if err != nil {
					t.Fatal(err)
				}
				startLanes(e, 2, 8)
				lanes[4].step = uint64(e.maxInteractions)
				for li, c := range lanes {
					e.l.step[li] = c.step
					for s, v := range c.counts {
						e.l.counts[s][li] = v
					}
				}
				return e
			}
			e := engine()
			before := e.l
			before.counts = append([][MaxLockstepLanes]uint32(nil), e.l.counts...)
			ticks := checkKernelCall(t, e, engine(), len(lanes), path.k)
			_, group := tickKernel(path.k)
			visits := uint64(kernelIters / ((len(lanes) + group - 1) / group))
			perVisit := uint64(ticksPerVisit(path.k))
			for li, c := range lanes {
				if moved := e.l.lane(li) != before.lane(li); moved != c.takes {
					t.Errorf("lane %d (%s): kernel advanced it = %v, want %v", li, c.name, moved, c.takes)
				}
				// One tick per visit in ticksAVX2; in ticks512 one or two,
				// and two on some of the visits.
				if c.takes && (ticks[li] < visits || ticks[li] > perVisit*visits || (perVisit > 1) != (ticks[li] > visits)) {
					t.Errorf("lane %d (%s): %d ticks in %d visits of up to %d ticks", li, c.name, ticks[li], visits, perVisit)
				}
				_, w := before.lane(li).weights(e)
				if got := before.kernelTakes(li, int64(e.maxInteractions), w, e.total); got != c.takes {
					t.Errorf("lane %d (%s): kernelTakes = %v, want %v", li, c.name, got, c.takes)
				}
			}
		})
	}
}

// TestLockstepKernelSecondTick crafts lanes near their budget of 1000 for
// each of ticks512's ways through a visit, at n = 1024 and w = 511,600, so
// that one visit takes each lane to the budget: A, an effective first tick
// at step 999 (one tick, Lemire on r₂); B, a null then an effective tick
// at 998 (two ticks, Lemire on r₃: three draws); C, two nulls at 998 (two
// ticks, counts unchanged); and D, a null at 999, where the budget stops
// the second tick (one tick, state t). Each kernel's call on A–D must end
// every lane there: ticksAVX2 on later visits, one tick per visit. With E,
// a null then an effective tick whose r₃ = 0 makes Lemire's low word 0,
// in the group, ticks512 must refuse the group at its first visit and
// commit nothing, while ticksAVX2, one tick per visit, commits every
// lane's first tick before it refuses at the second.
func TestLockstepKernelSecondTick(t *testing.T) {
	const n, delta, budget = 1024, 98, 1000
	const w, total = 511_600, n * (n - 1)
	counts := [3]uint32{500, 400, 124} // X, Y, blank
	p := NewThreeStateAM()
	p.MaxInteractionsFor = func(int) int { return budget }
	tab, err := p.compile()
	if err != nil {
		t.Fatal(err)
	}
	var prefix [4]uint64 // the pair weights' prefix sums, the last w
	for i, sum := 0, uint64(0); i < 4; i++ {
		sum += uint64(counts[tab.effS[i]]) * uint64(counts[tab.effT[i]])
		prefix[i] = sum
	}
	pairOf := func(r uint64) int {
		hi, _ := bits.Mul64(r, w)
		pair := 0
		for _, ps := range prefix[:3] {
			if ps <= hi {
				pair++
			}
		}
		return pair
	}
	// drawFor returns a draw whose Lemire high word is the last in pair i's
	// range and whose low word draws no retry.
	drawFor := func(i int) uint64 {
		hi := prefix[i] - 1
		for r, _ := bits.Div64(hi, 0, w); ; r++ {
			if h, lo := bits.Mul64(r, w); h == hi && lo >= w {
				return r
			}
		}
	}
	next := func(s [4]uint64, k int) [4]uint64 {
		for range k {
			_, s[0], s[1], s[2], s[3] = rng.Next4(s[0], s[1], s[2], s[3])
		}
		return s
	}
	fired := func(i int) [3]uint32 {
		c := counts
		k := tab.eff[i]
		c[tab.effS[i]]--
		c[tab.effT[i]]--
		c[tab.ni[k]]++
		c[tab.nr[k]]++
		return c
	}
	words := func(state [4]uint64, step uint64, c [3]uint32) laneWords {
		return laneWords{state, step, [4]uint32{c[0], c[1], c[2], 1}}
	}
	eff := func(r uint64) bool { return fires(r, w, total) }
	// A fires pair 1 on r₂; B fires pair 3 on r₃, where its r₂ would pick
	// another pair.
	sA := craftedLane(t, drawFor(1), w, total)
	sB := craftedDraws(t, drawFor(3), 2, func(d []uint64) bool { return !eff(d[0]) && eff(d[1]) && pairOf(d[1]) != 3 })
	sC := craftedDraws(t, 1, 2, func(d []uint64) bool { return !eff(d[0]) && !eff(d[1]) })
	sD := craftedDraws(t, 1, 1, func(d []uint64) bool { return !eff(d[0]) })
	sE := craftedDraws(t, 0, 2, func(d []uint64) bool { return !eff(d[0]) && eff(d[1]) })
	type lane struct {
		name        string
		start, want laneWords // want: where a call ends the lane
		firstNull   bool
	}
	lanes := []lane{
		{"A: effective", words(sA, budget-1, counts), words(next(sA, 2), budget, fired(1)), false},
		{"B: null, effective", words(sB, budget-2, counts), words(next(sB, 3), budget, fired(3)), true},
		{"C: null, null", words(sC, budget-2, counts), words(next(sC, 2), budget, counts), true},
		{"D: null at the budget", words(sD, budget-1, counts), words(next(sD, 1), budget, counts), true},
	}
	retry := lane{"E: null, effective, retry", words(sE, budget-2, counts), laneWords{}, true}
	call := func(t *testing.T, k cpufeat.Level, lanes []lane, refuses bool) {
		t.Helper()
		e, err := p.newLockstep(n, delta, 8)
		if err != nil {
			t.Fatal(err)
		}
		startLanes(e, 1, len(lanes))
		for li, c := range lanes {
			e.l.setLane(li, c.start)
		}
		if e.kernelTicks(len(lanes), k) != refuses {
			t.Fatalf("the kernel refused = %v, want %v", !refuses, refuses)
		}
		for li, c := range lanes {
			if got := e.l.lane(li); got != c.want {
				t.Errorf("lane %d (%s): ends at %+v, want %+v", li, c.name, got, c.want)
			}
		}
	}
	for _, path := range kernelPaths(t) {
		t.Run(path.name, func(t *testing.T) {
			call(t, path.k, lanes, false)
			// E goes in the first group of either kernel, with A, B and C.
			withE := append(append([]lane(nil), lanes[:3]...), retry, lanes[3])
			for li, c := range withE {
				switch {
				case path.k == cpufeat.AVX512:
					withE[li].want = c.start
				case c.firstNull: // one tick per visit: the null to t
					withE[li].want = laneWords{next(c.start.state, 1), c.start.step + 1, c.start.counts}
				}
			}
			call(t, path.k, withE, true)
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
// visits each group at most kernelIters/groups times. Every lane starts
// mid-run, deep in the tick regime, and stays eligible for the whole call,
// so a lone group gets kernelIters visits and 128 lanes kernelIters/groups
// each, in 16 groups of eight or 32 of four, and every lane must end where
// modelKernelCall puts it: one tick per visit in ticksAVX2, and one or two
// in ticks512. Both runs then finish on the Go rounds and must agree with
// runs that never called a kernel.
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
				visits := uint64(kernelIters / ((lanes + group - 1) / group))
				for li, ticks := range checkKernelCall(t, e, engine(), lanes, path.k) {
					if ticks < visits || ticks > visits*uint64(ticksPerVisit(path.k)) {
						t.Fatalf("lanes=%d: one call advanced lane %d by %d ticks in %d visits of up to %d ticks",
							lanes, li, ticks, visits, ticksPerVisit(path.k))
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
