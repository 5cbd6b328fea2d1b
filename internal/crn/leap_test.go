package crn

import (
	"errors"
	"math"
	"testing"

	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func TestNewLeapSimulatorValidation(t *testing.T) {
	net := deathNetwork(t, 1)
	if _, err := NewLeapSimulator(net, []int{1, 2}, rng.New(1), LeapOptions{}); err == nil {
		t.Error("wrong state length accepted")
	}
	if _, err := NewLeapSimulator(net, []int{-1}, rng.New(1), LeapOptions{}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewLeapSimulator(net, []int{1}, nil, LeapOptions{}); err == nil {
		t.Error("nil source accepted")
	}
}

func TestLeapAbsorbed(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewLeapSimulator(net, []int{0}, rng.New(1), LeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := sim.Step(); r != -1 || !errors.Is(err, ErrExhausted) {
		t.Errorf("Step on absorbed chain returned %d, %v", r, err)
	}
}

func TestLeapStateIsCopy(t *testing.T) {
	net := deathNetwork(t, 1)
	initial := []int{5}
	sim, err := NewLeapSimulator(net, initial, rng.New(1), LeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	initial[0] = 99
	if sim.Count(0) != 5 {
		t.Error("simulator aliased the initial state")
	}
	view := sim.State()
	view[0] = -3
	if sim.Count(0) != 5 {
		t.Error("State() exposed internal state")
	}
}

func TestLeapPureDeathReachesZero(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewLeapSimulator(net, []int{50000}, rng.New(3), LeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Absorbed || sim.Count(0) != 0 {
		t.Errorf("pure death did not absorb: %+v, count %d", res, sim.Count(0))
	}
	if sim.Leaps() == 0 {
		t.Error("no tau-leaps taken on a large population; leaping is not engaging")
	}
}

func TestLeapImmigrationDeathStationaryMean(t *testing.T) {
	// ∅→X at rate λ, X→∅ per-capita μ: stationary Poisson(λ/μ).
	// The tau-leaping trajectory should hover around the same mean.
	const lambda = 500.0
	const mu = 1.0
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "in", Products: []Species{0}, Rate: lambda})
	net.MustAddReaction(Reaction{Name: "out", Reactants: []Species{0}, Rate: mu})
	sim, err := NewLeapSimulator(net, []int{0}, rng.New(5), LeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm up past the relaxation time (~1/mu), then sample.
	if _, err := Run(sim, nil, 0, 10); err != nil {
		t.Fatal(err)
	}
	var acc stats.Running
	for sim.Time() < 200 {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		acc.Add(float64(sim.Count(0)))
	}
	want := lambda / mu
	if math.Abs(acc.Mean()-want)/want > 0.05 {
		t.Errorf("stationary mean %v, want ~%v", acc.Mean(), want)
	}
}

func TestLeapMatchesExactExtinctionTime(t *testing.T) {
	// Logistic death: X→∅ at per-capita δ plus X+X→X at rate γ. Compare
	// mean extinction times between the exact simulator and tau-leaping.
	if testing.Short() {
		t.Skip("statistical test")
	}
	build := func() *Network {
		net := mustNetwork(t, "X")
		net.MustAddReaction(Reaction{Name: "death", Reactants: []Species{0}, Rate: 1})
		net.MustAddReaction(Reaction{Name: "crowd", Reactants: []Species{0, 0}, Products: []Species{0}, Rate: 0.01})
		return net
	}
	const n0 = 2000
	const trials = 200

	var exactAcc, leapAcc stats.Running
	srcExact := rng.New(7)
	for i := 0; i < trials; i++ {
		sim, err := NewEngine(build(), []int{n0}, EngineDirect, true, srcExact)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sim, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		exactAcc.Add(sim.Time())
	}
	srcLeap := rng.New(9)
	for i := 0; i < trials; i++ {
		sim, err := NewLeapSimulator(build(), []int{n0}, srcLeap, LeapOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sim, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		leapAcc.Add(sim.Time())
	}
	diff := math.Abs(exactAcc.Mean() - leapAcc.Mean())
	tol := 5*(exactAcc.StdErr()+leapAcc.StdErr()) + 0.05*exactAcc.Mean()
	if diff > tol {
		t.Errorf("mean extinction: exact %v vs leap %v (tol %v)", exactAcc.Mean(), leapAcc.Mean(), tol)
	}
}

func TestLeapIsFasterThanExactPerEvent(t *testing.T) {
	// Sanity: on a large population, tau-leaping must cover the same
	// simulated time in far fewer iterations than one-per-event.
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "birth", Reactants: []Species{0}, Products: []Species{0, 0}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "crowd", Reactants: []Species{0, 0}, Products: []Species{0}, Rate: 0.001})
	sim, err := NewLeapSimulator(net, []int{1000}, rng.New(11), LeapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, nil, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The equilibrium population is ~1000 with total propensity ~2000/s:
	// exact simulation would take ~10000 events for 5 time units.
	if res.Steps > 3000 {
		t.Errorf("tau-leaping took %d iterations; not accelerating", res.Steps)
	}
}
