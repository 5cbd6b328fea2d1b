package crn

import (
	"errors"
	"math"
	"testing"

	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func TestNewNRMSimulatorValidation(t *testing.T) {
	net := deathNetwork(t, 1)
	if _, err := NewNRMSimulator(net, []int{1, 2}, rng.New(1)); err == nil {
		t.Error("wrong state length accepted")
	}
	if _, err := NewNRMSimulator(net, []int{-1}, rng.New(1)); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := NewNRMSimulator(net, []int{1}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

func TestNRMAbsorbed(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewNRMSimulator(net, []int{0}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Step(); !errors.Is(err, ErrExhausted) {
		t.Errorf("Step on absorbed chain returned %v", err)
	}
}

func TestNRMPureDeathStepCount(t *testing.T) {
	net := deathNetwork(t, 2)
	const n = 123
	sim, err := NewNRMSimulator(net, []int{n}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Absorbed || res.Steps != n || sim.Count(0) != 0 {
		t.Errorf("result %+v, count %d; want %d deaths to zero", res, sim.Count(0), n)
	}
	if sim.Time() <= 0 {
		t.Error("no time elapsed")
	}
}

func TestNRMExtinctionTimeMatchesDirectMethod(t *testing.T) {
	// The NRM and the direct method sample the same continuous-time
	// chain: extinction-time distributions must agree (KS test).
	if testing.Short() {
		t.Skip("statistical test")
	}
	build := func() *Network {
		net := mustNetwork(t, "X")
		net.MustAddReaction(Reaction{Name: "birth", Reactants: []Species{0}, Products: []Species{0, 0}, Rate: 0.5})
		net.MustAddReaction(Reaction{Name: "death", Reactants: []Species{0}, Rate: 1})
		return net
	}
	const n0 = 20
	const trials = 3000

	direct := make([]float64, 0, trials)
	src1 := rng.New(17)
	for i := 0; i < trials; i++ {
		sim, err := NewEngine(build(), []int{n0}, EngineDirect, true, src1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sim, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		direct = append(direct, sim.Time())
	}
	nrm := make([]float64, 0, trials)
	src2 := rng.New(19)
	for i := 0; i < trials; i++ {
		sim, err := NewNRMSimulator(build(), []int{n0}, src2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(sim, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		nrm = append(nrm, sim.Time())
	}
	d, err := stats.KSDistance(stats.NewECDF(direct), stats.NewECDF(nrm))
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.05 {
		t.Errorf("KS distance between direct and NRM extinction times = %v", d)
	}
}

func TestNRMJumpDistributionMatchesPropensities(t *testing.T) {
	// Competing channels at rates 1 and 3: the fast one wins 75% of
	// first firings under the race of exponential clocks.
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "slow", Reactants: []Species{0}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "fast", Reactants: []Species{0}, Rate: 3})
	src := rng.New(23)
	const trials = 40000
	fast := 0
	for i := 0; i < trials; i++ {
		sim, err := NewNRMSimulator(net, []int{1}, src)
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

func TestDependencyGraph(t *testing.T) {
	// A → B (r0) changes A and B; r1 reads A, r2 reads B, r3 reads C.
	net := mustNetwork(t, "A", "B", "C")
	net.MustAddReaction(Reaction{Name: "convert", Reactants: []Species{0}, Products: []Species{1}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "readA", Reactants: []Species{0}, Products: []Species{0}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "readB", Reactants: []Species{1}, Products: []Species{1}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "readC", Reactants: []Species{2}, Products: []Species{2}, Rate: 1})
	deps := net.dependencyGraph()
	has := func(r, dep int) bool {
		for _, d := range deps[r] {
			if d == dep {
				return true
			}
		}
		return false
	}
	if !has(0, 0) || !has(0, 1) || !has(0, 2) {
		t.Errorf("convert should affect itself, readA and readB: %v", deps[0])
	}
	if has(0, 3) {
		t.Errorf("convert should not affect readC: %v", deps[0])
	}
	// readA changes nothing (A -> A), so it affects only itself.
	if len(deps[1]) != 1 || deps[1][0] != 1 {
		t.Errorf("readA deps = %v, want [1]", deps[1])
	}
}

func TestNRMRunStopPredicate(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewNRMSimulator(net, []int{10}, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, func(state []int) bool { return state[0] <= 3 }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || sim.Count(0) != 3 {
		t.Errorf("result %+v, count %d; want stop at 3", res, sim.Count(0))
	}
}

func TestNRMStateIsCopy(t *testing.T) {
	net := deathNetwork(t, 1)
	sim, err := NewNRMSimulator(net, []int{5}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	view := sim.State()
	view[0] = 42
	if sim.Count(0) != 5 {
		t.Error("State() exposed internal state")
	}
}
