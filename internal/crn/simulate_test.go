package crn

import (
	"errors"
	"math"
	"testing"

	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func deathNetwork(t *testing.T, delta float64) *Network {
	t.Helper()
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "death", Reactants: []Species{0}, Rate: delta})
	return net
}

func TestNewSimulatorValidation(t *testing.T) {
	net := deathNetwork(t, 1)
	if _, err := NewSimulator(net, []int{1, 2}, rng.New(1)); err == nil {
		t.Error("wrong state length did not error")
	}
	if _, err := NewSimulator(net, []int{-1}, rng.New(1)); err == nil {
		t.Error("negative count did not error")
	}
	if _, err := NewSimulator(net, []int{1}, nil); err == nil {
		t.Error("nil source did not error")
	}
}

func TestSimulatorStateIsCopy(t *testing.T) {
	net := deathNetwork(t, 1)
	initial := []int{5}
	sim, err := NewSimulator(net, initial, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	initial[0] = 99
	if sim.Count(0) != 5 {
		t.Error("simulator aliased the initial state")
	}
	got := sim.State()
	got[0] = -7
	if sim.Count(0) != 5 {
		t.Error("State() exposed internal state")
	}
}

func TestPureDeathJumpChainStepCount(t *testing.T) {
	// A pure death chain from n fires exactly n reactions before
	// absorption, deterministically.
	net := deathNetwork(t, 2.5)
	const n = 137
	sim, err := NewSimulator(net, []int{n}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Absorbed {
		t.Error("pure death chain did not absorb")
	}
	if res.Steps != n {
		t.Errorf("steps = %d, want %d", res.Steps, n)
	}
	if sim.Count(0) != 0 {
		t.Errorf("final count = %d, want 0", sim.Count(0))
	}
}

func TestPureDeathExtinctionTimeMean(t *testing.T) {
	// Continuous time: E[T] = H_n / δ for per-capita death rate δ.
	const n = 50
	const delta = 2.0
	const trials = 3000
	var acc stats.Running
	src := rng.New(11)
	for i := 0; i < trials; i++ {
		net := deathNetwork(t, delta)
		sim, err := NewEngine(net, []int{n}, EngineDirect, true, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sim, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		acc.Add(sim.Time())
	}
	want := stats.HarmonicNumber(n) / delta
	if math.Abs(acc.Mean()-want) > 5*acc.StdErr()+0.01*want {
		t.Errorf("mean extinction time = %v, want ~%v", acc.Mean(), want)
	}
}

func TestStepOnAbsorbedChain(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewSimulator(net, []int{0}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Step(); !errors.Is(err, ErrExhausted) {
		t.Errorf("Step on absorbed chain returned %v, want ErrExhausted", err)
	}
	if _, _, err := sim.StepTime(); !errors.Is(err, ErrExhausted) {
		t.Errorf("StepTime on absorbed chain returned %v, want ErrExhausted", err)
	}
}

func TestRunStopPredicate(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewSimulator(net, []int{10}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, func(state []int) bool { return state[0] <= 4 }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Absorbed {
		t.Errorf("result = %+v, want stopped", res)
	}
	if sim.Count(0) != 4 {
		t.Errorf("count = %d, want 4", sim.Count(0))
	}
	if res.Steps != 6 {
		t.Errorf("steps = %d, want 6", res.Steps)
	}
}

func TestRunStopImmediately(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewSimulator(net, []int{10}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, func([]int) bool { return true }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.Steps != 0 {
		t.Errorf("result = %+v, want immediate stop with 0 steps", res)
	}
}

func TestRunMaxSteps(t *testing.T) {
	net := mustNetwork(t, "X")
	// Birth-only network never absorbs.
	net.MustAddReaction(Reaction{Name: "birth", Reactants: []Species{0}, Products: []Species{0, 0}, Rate: 1})
	sim, err := NewSimulator(net, []int{1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, nil, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 100 || res.Stopped || res.Absorbed {
		t.Errorf("result = %+v, want exactly 100 uneventful steps", res)
	}
	if sim.Count(0) != 101 {
		t.Errorf("count = %d, want 101", sim.Count(0))
	}
}

func TestRunTimeMaxTime(t *testing.T) {
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "birth", Reactants: []Species{0}, Products: []Species{0, 0}, Rate: 1})
	sim, err := NewEngine(net, []int{1}, EngineDirect, true, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	const maxTime = 2.0
	res, err := Run(sim, nil, 0, maxTime)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Time() < maxTime || res.Stopped || res.Absorbed {
		t.Errorf("result %+v at time %v, want a plain stop at time >= %v", res, sim.Time(), maxTime)
	}
	// Yule process at rate 1: E[X_t] = e^t, so the count should be modest
	// but above 1. Mostly this checks the loop terminates.
	if sim.StateView()[0] < 1 {
		t.Errorf("count = %d, want >= 1", sim.StateView()[0])
	}
}

func TestBirthDeathEquilibriumImmigration(t *testing.T) {
	// Immigration-death process ∅→X at rate λ, X→∅ at per-capita rate μ
	// has stationary distribution Poisson(λ/μ). Check the long-run mean.
	const lambda = 20.0
	const mu = 1.0
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "in", Products: []Species{0}, Rate: lambda})
	net.MustAddReaction(Reaction{Name: "out", Reactants: []Species{0}, Rate: mu})
	sim, err := NewSimulator(net, []int{0}, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up, then sample.
	if _, err := Run(sim, nil, 2000, 0); err != nil {
		t.Fatal(err)
	}
	var acc stats.Running
	for i := 0; i < 30000; i++ {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		acc.Add(float64(sim.Count(0)))
	}
	// The jump-chain average is not exactly the continuous-time one, but
	// for this process the count hovers around λ/μ; allow a wide band.
	if acc.Mean() < 15 || acc.Mean() > 25 {
		t.Errorf("long-run mean count = %v, want ~20", acc.Mean())
	}
}

func TestJumpChainDistributionMatchesPropensities(t *testing.T) {
	// Two competing death channels at rates 1 and 3 on the same species:
	// channel 2 should win ~75% of first steps.
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "slow", Reactants: []Species{0}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "fast", Reactants: []Species{0}, Rate: 3})
	src := rng.New(55)
	const trials = 40000
	fast := 0
	for i := 0; i < trials; i++ {
		sim, err := NewSimulator(net, []int{1}, src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Step()
		if err != nil {
			t.Fatal(err)
		}
		if r == 1 {
			fast++
		}
	}
	got := float64(fast) / trials
	if math.Abs(got-0.75) > 0.01 {
		t.Errorf("fast channel frequency = %v, want ~0.75", got)
	}
}
