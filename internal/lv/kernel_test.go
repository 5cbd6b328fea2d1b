package lv

import (
	"testing"

	"lvmajority/internal/rng"
	"lvmajority/internal/testutil"
)

// referenceRun replays the pre-fusion Run implementation: a NewChain +
// Step loop with the closure-based accounting. The fused kernel must match
// it field for field on the same random stream.
func referenceRun(t *testing.T, params Params, initial State, src *rng.Source, opts RunOptions) Outcome {
	t.Helper()
	chain, err := NewChain(params, initial, src)
	if err != nil {
		t.Fatal(err)
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	out := Outcome{Winner: -1, MaxPopulation: initial.Total()}
	majority := 0
	if initial.X1 > initial.X0 {
		majority = 1
	}
	signedGap := func(s State) int {
		if majority == 0 {
			return s.X0 - s.X1
		}
		return s.X1 - s.X0
	}

	prev := chain.State()
	for !chain.State().Consensus() {
		if chain.Steps() >= maxSteps {
			out.Steps = chain.Steps()
			out.Final = chain.State()
			return out
		}
		kind, ok := chain.Step()
		if !ok {
			out.Steps = chain.Steps()
			out.Final = chain.State()
			return out
		}
		cur := chain.State()

		fStep := signedGap(prev) - signedGap(cur)
		if kind.IsIndividual() {
			out.Individual++
			out.FInd += fStep
			if prev.Min() > 0 && cur.AbsGap() == prev.AbsGap()-1 {
				out.BadNonCompetitive++
			}
		} else {
			out.Competitive++
			out.FComp += fStep
		}
		if cur.Total() > out.MaxPopulation {
			out.MaxPopulation = cur.Total()
		}
		if !cur.Consensus() && cur.X0 == cur.X1 {
			out.GapHitZero = true
		}
		prev = cur
	}

	out.Consensus = true
	out.Steps = chain.Steps()
	out.Final = chain.State()
	out.Winner = out.Final.Winner()
	out.MajorityWon = out.Winner == majority
	return out
}

// TestFusedKernelByteIdenticalToStepLoop runs the fused Run kernel and the
// Step-loop reference from identical streams across every competition
// regime and a budget-bound chain, and demands Outcome equality in every
// field — the fused kernel must be invisible at the bit level.
func TestFusedKernelByteIdenticalToStepLoop(t *testing.T) {
	cases := []struct {
		name    string
		params  Params
		initial State
		opts    RunOptions
	}{
		{"SD", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 40, X1: 30}, RunOptions{}},
		{"NSD", Neutral(1, 1, 1, 0, NonSelfDestructive), State{X0: 40, X1: 30}, RunOptions{}},
		{"SD-intra", Neutral(1, 1, 0, 1, SelfDestructive), State{X0: 24, X1: 18}, RunOptions{}},
		{"NSD-both", Neutral(1, 1, 0.5, 0.5, NonSelfDestructive), State{X0: 30, X1: 20}, RunOptions{}},
		{"asymmetric", Params{Beta: 1, Delta: 0.5, Alpha: [2]float64{1, 0.8}, Gamma: [2]float64{0.2, 0.1}, Competition: NonSelfDestructive}, State{X0: 20, X1: 16}, RunOptions{}},
		{"budget-bound", Neutral(1, 1, 0, 0, SelfDestructive), State{X0: 10, X1: 10}, RunOptions{MaxSteps: 500}},
		{"tie-start", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 20, X1: 20}, RunOptions{}},
		{"minority-is-x0", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 15, X1: 25}, RunOptions{}},
		{"already-consensus", Neutral(1, 1, 1, 0, SelfDestructive), State{X0: 10, X1: 0}, RunOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 25; seed++ {
				got, err := Run(tc.params, tc.initial, rng.New(seed), tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRun(t, tc.params, tc.initial, rng.New(seed), tc.opts)
				if got != want {
					t.Fatalf("seed %d: fused kernel diverged:\n got %+v\nwant %+v", seed, got, want)
				}
			}
		})
	}
}

// TestRunAllocationFree verifies the fused kernel's headline property: a
// whole consensus run performs zero heap allocations.
func TestRunAllocationFree(t *testing.T) {
	params := Neutral(1, 1, 1, 0, SelfDestructive)
	src := rng.New(7)
	mallocs := testutil.Mallocs(50, func() {
		if _, err := Run(params, State{X0: 40, X1: 30}, src, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if mallocs != 0 {
		t.Errorf("50 lv.Run calls allocated %d times, want 0", mallocs)
	}
}
