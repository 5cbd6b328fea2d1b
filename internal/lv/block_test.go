package lv_test

import (
	"math"
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// checkBlockMatchesTrial runs replicates [lo, hi) of p at (n, delta) on
// every block engine, in blocks of width: the dispatching Block.Run, each
// round kernel the CPU has (with the narrower kernels and the Go round
// under it), and the Go round alone. It fails on the first replicate whose
// win differs from Trial's on rng.NewStream(seed, rep).
func checkBlockMatchesTrial(t testing.TB, p consensus.LVProtocol, n, delta int, seed uint64, lo, hi, width int) {
	t.Helper()
	run, err := p.NewTrialBlock(n, delta)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := consensus.SplitInitial(n, delta)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := lv.NewBlock(p.Params, lv.State{X0: a, X1: b}, p.MaxSteps, p.Ties == consensus.TieIsCoinFlip)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, hi-lo)
	for rep := lo; rep < hi; rep++ {
		if want[rep-lo], err = p.Trial(n, delta, rng.NewStream(seed, uint64(rep))); err != nil {
			t.Fatal(err)
		}
	}
	type engine struct {
		name string
		run  func(seed uint64, lo, hi int, wins []bool) error
	}
	engines := []engine{{"block", run}}
	for _, e := range lv.Engines() {
		engines = append(engines, engine{e.Name, func(seed uint64, lo, hi int, wins []bool) error {
			return e.Run(blk, seed, lo, hi, wins)
		}})
	}
	for _, engine := range engines {
		wins := make([]bool, hi-lo)
		for b := lo; b < hi; b += width {
			e := min(b+width, hi)
			if err := engine.run(seed, b, e, wins[b-lo:e-lo]); err != nil {
				t.Fatal(err)
			}
		}
		for rep := lo; rep < hi; rep++ {
			if wins[rep-lo] != want[rep-lo] {
				t.Fatalf("%+v (n=%d, delta=%d) seed %d replicate %d: %s won=%v, Trial won=%v",
					p, n, delta, seed, rep, engine.name, wins[rep-lo], want[rep-lo])
			}
		}
	}
}

// TestBlockMatchesTrial compares every lane of the block engine with the
// scalar Trial across the regimes of the fused-kernel replay test, both
// tie rules where double extinction is common, chains that can fire no
// reaction, −0.0 rates, a total that overflows to +Inf from the first
// event, and blocks narrower than, equal to and wider than the lane width
// starting past replicate 0. Blocks of three lanes never enter a round
// kernel; blocks of thirteen start with partial groups in both kernels
// (one group of eight and five lanes waiting, three groups of four and
// one waiting); the widest blocks refill lanes.
func TestBlockMatchesTrial(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name     string
		p        consensus.LVProtocol
		n, delta int
	}{
		{"SD", consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}, 70, 10},
		{"NSD", consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)}, 70, 10},
		{"SD-intra", consensus.LVProtocol{Params: lv.Neutral(1, 1, 0, 1, lv.SelfDestructive)}, 42, 6},
		{"NSD-both", consensus.LVProtocol{Params: lv.Neutral(1, 1, 0.5, 0.5, lv.NonSelfDestructive)}, 50, 10},
		{"asymmetric", consensus.LVProtocol{Params: lv.Params{Beta: 1, Delta: 0.5, Alpha: [2]float64{1, 0.8}, Gamma: [2]float64{0.2, 0.1}, Competition: lv.NonSelfDestructive}}, 36, 4},
		{"budget-bound", consensus.LVProtocol{Params: lv.Neutral(1, 1, 0, 0, lv.SelfDestructive), MaxSteps: 500}, 20, 0},
		{"tie-start", consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}, 40, 0},
		{"ties-loss", consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 1, lv.SelfDestructive), Ties: consensus.TieIsLoss}, 16, 8},
		{"ties-coin", consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 1, lv.SelfDestructive), Ties: consensus.TieIsCoinFlip}, 16, 8},
		{"zero-rates", consensus.LVProtocol{Params: lv.Neutral(0, 0, 0, 0, lv.SelfDestructive)}, 20, 4},
		{"neg-zero-beta", consensus.LVProtocol{Params: lv.Params{Beta: negZero, Delta: 1, Alpha: [2]float64{1, 1}, Competition: lv.SelfDestructive}}, 30, 4},
		{"neg-zero-gamma", consensus.LVProtocol{Params: lv.Params{Beta: 1, Delta: 1, Alpha: [2]float64{1, 1}, Gamma: [2]float64{negZero, negZero}, Competition: lv.NonSelfDestructive}}, 30, 4},
		{"inf-total", consensus.LVProtocol{Params: lv.Neutral(1, 1, 1e300, 0, lv.SelfDestructive), MaxSteps: 64}, 40000, 0},
	}
	widths := []int{3, 13, lv.BlockLanes, 5*lv.BlockLanes + 3}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, w := range widths {
					checkBlockMatchesTrial(t, tc.p, tc.n, tc.delta, seed, 37, 37+2*w+1, w)
				}
			}
		})
	}
}

// TestKernelCall checks one call of each round kernel the CPU has against
// Run on each lane's stream. At (10⁶, 10⁶) no lane stops for millions of
// events, so a call on every group must fire exactly KernelRounds events,
// the round cap, in every lane and land where Run lands after as many; a
// call on the first group alone must do so in that group's lanes and
// leave every other lane bit for bit as it was. With a budget of 100
// events, every lane must stop at exactly 100. With α = 1e300 at
// (20000, 20000) the total is +Inf from the first event, so a kernel must
// hand back before it fires any.
func TestKernelCall(t *testing.T) {
	var kernels []lv.Engine
	for _, e := range lv.Engines() {
		if e.Group > 0 {
			kernels = append(kernels, e)
		}
	}
	if len(kernels) == 0 {
		t.Skip("no round kernel runs on this CPU")
	}
	nsd := lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)
	for _, tc := range []struct {
		name     string
		params   lv.Params
		initial  lv.State
		maxSteps int
		oneGroup bool
		events   int
	}{
		{"nsd-1e6", nsd, lv.State{X0: 1_000_000, X1: 1_000_000}, 0, false, lv.KernelRounds},
		{"nsd-1e6-one-group", nsd, lv.State{X0: 1_000_000, X1: 1_000_000}, 0, true, lv.KernelRounds},
		{"budget", nsd, lv.State{X0: 1_000_000, X1: 1_000_000}, 100, false, 100},
		{"inf-total", lv.Neutral(1, 1, 1e300, 0, lv.SelfDestructive), lv.State{X0: 20000, X1: 20000}, 0, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, e := range kernels {
				t.Run(e.Name, func(t *testing.T) {
					blk, err := lv.NewBlock(tc.params, tc.initial, tc.maxSteps, false)
					if err != nil {
						t.Fatal(err)
					}
					groups := lv.BlockLanes / e.Group
					if tc.oneGroup {
						groups = 1
					}
					const seed = 5
					before, after := e.KernelCall(blk, seed, groups)
					for li := range lv.BlockLanes {
						got := after[li]
						if li >= groups*e.Group || tc.events == 0 {
							if got != before[li] {
								t.Errorf("lane %d: kernel left %+v, want it untouched at %+v", li, got, before[li])
							}
							continue
						}
						out, err := lv.Run(tc.params, tc.initial, rng.NewStream(seed, uint64(li)), lv.RunOptions{MaxSteps: tc.events})
						if err != nil {
							t.Fatal(err)
						}
						if at := (lv.State{X0: got.X0, X1: got.X1}); got.Steps != tc.events || at != out.Final {
							t.Errorf("lane %d: kernel at %+v after %d events, want %+v after %d", li, at, got.Steps, out.Final, tc.events)
						}
					}
				})
			}
		})
	}
}

// TestBlockScoresLikeRun covers the initial states Trial cannot express:
// a majority held by species 1, and a chain that starts in consensus.
func TestBlockScoresLikeRun(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	for _, initial := range []lv.State{{X0: 15, X1: 25}, {X0: 10, X1: 0}, {X0: 0, X1: 10}} {
		blk, err := lv.NewBlock(params, initial, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		const seed, reps = 9, 50
		wins := make([]bool, reps)
		if err := blk.Run(seed, 0, reps, wins); err != nil {
			t.Fatal(err)
		}
		for rep := range reps {
			out, err := lv.Run(params, initial, rng.NewStream(seed, uint64(rep)), lv.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if wins[rep] != (out.Consensus && out.MajorityWon) {
				t.Fatalf("%+v replicate %d: block won=%v, Run %+v", initial, rep, wins[rep], out)
			}
		}
	}
}

// TestBlockRejects checks that NewBlock validates once what Run validates
// per call, and that Run rejects a malformed window.
func TestBlockRejects(t *testing.T) {
	if _, err := lv.NewBlock(lv.Neutral(-1, 1, 1, 0, lv.SelfDestructive), lv.State{X0: 3, X1: 2}, 0, false); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := lv.NewBlock(lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), lv.State{X0: -3, X1: 2}, 0, false); err == nil {
		t.Error("negative state accepted")
	}
	blk, err := lv.NewBlock(lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), lv.State{X0: 3, X1: 2}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := blk.Run(1, 4, 2, nil); err == nil {
		t.Error("inverted window accepted")
	}
	if err := blk.Run(1, 0, 4, make([]bool, 3)); err == nil {
		t.Error("short wins slice accepted")
	}
}

// TestBlockAllocationFree checks that a steady-state block run, refills
// and retirements included, performs no heap allocation.
func TestBlockAllocationFree(t *testing.T) {
	blk, err := lv.NewBlock(lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), lv.State{X0: 40, X1: 30}, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	wins := make([]bool, 4*lv.BlockLanes)
	seed := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		if err := blk.Run(seed, 0, len(wins), wins); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Block.Run allocated %v times per call, want 0", allocs)
	}
}

// FuzzBlockMatchesTrial compares the block engine with Trial on fuzzed
// chains: every rate drawn from {0, −0.0, the smallest denormal, 1e300,
// an ordinary value}, states up to 40, both models, both tie rules and a
// bounded step budget.
func FuzzBlockMatchesTrial(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(4), uint8(4), uint8(0), uint8(0), uint8(30), uint8(20), true, false, uint16(4000))
	f.Add(uint64(2), uint8(1), uint8(34), uint8(34), uint8(34), uint8(0), uint8(16), uint8(14), true, false, uint16(4000))
	f.Add(uint64(3), uint8(4), uint8(4), uint8(4), uint8(4), uint8(1), uint8(12), uint8(4), true, true, uint16(4000))
	f.Add(uint64(4), uint8(3), uint8(2), uint8(3), uint8(2), uint8(3), uint8(40), uint8(1), false, true, uint16(100))
	f.Add(uint64(5), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(5), uint8(5), false, false, uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, beta, delta, alpha, alpha1, gamma uint8, a, b uint8, sd, coin bool, budget uint16) {
		rate := func(sel uint8) float64 {
			switch sel % 5 {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			case 2:
				return math.SmallestNonzeroFloat64
			case 3:
				return 1e300
			default:
				return float64(sel) / 32
			}
		}
		p := consensus.LVProtocol{
			Params: lv.Params{
				Beta:        rate(beta),
				Delta:       rate(delta),
				Alpha:       [2]float64{rate(alpha), rate(alpha1)},
				Gamma:       [2]float64{rate(gamma), rate(gamma / 5)},
				Competition: lv.NonSelfDestructive,
			},
			MaxSteps: 1 + int(budget%4096),
		}
		if sd {
			p.Params.Competition = lv.SelfDestructive
		}
		if coin {
			p.Ties = consensus.TieIsCoinFlip
		}
		hi, lo := max(a%41, b%41), max(min(a%41, b%41), 1)
		hi = max(hi, lo)
		checkBlockMatchesTrial(t, p, int(hi+lo), int(hi-lo), seed, int(seed%64), int(seed%64)+2*lv.BlockLanes+3, 2*lv.BlockLanes+3)
	})
}
