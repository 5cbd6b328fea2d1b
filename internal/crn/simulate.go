package crn

import (
	"errors"
	"fmt"

	"lvmajority/internal/rng"
)

// ErrExhausted reports that the chain reached a state with zero total
// propensity (every reaction channel is dead), so no further event can occur.
var ErrExhausted = errors.New("crn: zero total propensity, chain is absorbed")

// Simulator runs exact stochastic simulation of a Network. It implements
// both the discrete-time jump chain (Step) and Gillespie's direct method in
// continuous time (StepTime); a Simulator that NewEngine builds with timed
// set takes StepTime for Step. A Simulator is not safe for concurrent use.
//
// Propensities are cached incrementally: after firing reaction r only the
// channels the network's dependency graph lists for r are recomputed.
// Every pick resums the cached array in index order, which keeps the
// simulator bit-for-bit identical to the naive direct method on every
// network (see kernel.go).
type Simulator struct {
	net   *Network
	state []int
	src   *rng.Source

	time  float64
	steps int
	// timed makes Step advance the continuous-time chain (see NewEngine).
	timed bool

	// props caches the per-reaction propensities of the current state.
	props []float64
	// deps is the network's dependency graph, captured at construction.
	deps [][]int
}

// NewSimulator creates a simulator over net starting from the given initial
// state, drawing randomness from src. The initial state is copied. It
// returns an error on length mismatch or negative counts.
func NewSimulator(net *Network, initial []int, src *rng.Source) (*Simulator, error) {
	if len(initial) != net.NumSpecies() {
		return nil, fmt.Errorf("crn: initial state has %d species, network has %d", len(initial), net.NumSpecies())
	}
	for i, x := range initial {
		if x < 0 {
			return nil, fmt.Errorf("crn: negative initial count %d for species %s", x, net.SpeciesName(Species(i)))
		}
	}
	if src == nil {
		return nil, fmt.Errorf("crn: nil random source")
	}
	state := make([]int, len(initial))
	copy(state, initial)
	sim := &Simulator{
		net:   net,
		state: state,
		src:   src,
		props: make([]float64, net.NumReactions()),
		deps:  net.dependencyGraph(),
	}
	sim.refill()
	return sim, nil
}

// refill recomputes every cached propensity from the current state.
func (sim *Simulator) refill() {
	for r := range sim.props {
		sim.props[r] = sim.net.Propensity(r, sim.state)
	}
}

// State returns the current state. The returned slice is a copy.
func (sim *Simulator) State() []int {
	out := make([]int, len(sim.state))
	copy(out, sim.state)
	return out
}

// StateView returns the live state slice without copying. Callers must not
// modify or retain it past the next Step, StepTime, or Reset call.
func (sim *Simulator) StateView() []int { return sim.state }

// Reset returns the simulator to the given initial state with a fresh
// random stream, reusing its buffers: the time and step counters restart at
// zero. It returns an error on length mismatch or negative counts.
func (sim *Simulator) Reset(initial []int, src *rng.Source) error {
	if len(initial) != len(sim.state) {
		return fmt.Errorf("crn: initial state has %d species, network has %d", len(initial), len(sim.state))
	}
	for i, x := range initial {
		if x < 0 {
			return fmt.Errorf("crn: negative initial count %d for species %s", x, sim.net.SpeciesName(Species(i)))
		}
	}
	if src == nil {
		return fmt.Errorf("crn: nil random source")
	}
	copy(sim.state, initial)
	sim.src = src
	sim.time = 0
	sim.steps = 0
	sim.refill()
	return nil
}

// Count returns the current count of species s.
func (sim *Simulator) Count(s Species) int { return sim.state[s] }

// Time returns the accumulated continuous time (advanced only by StepTime).
func (sim *Simulator) Time() float64 { return sim.time }

// Steps returns the number of reactions fired so far.
func (sim *Simulator) Steps() int { return sim.steps }

// pick samples the next reaction index proportionally to the cached
// propensities, or returns ErrExhausted when the total propensity is zero.
// It also returns the total propensity for holding-time draws.
//
//lint:hotpath
func (sim *Simulator) pick() (int, float64, error) {
	// Resumming the cached array in index order reproduces the naive
	// direct method's floating-point total exactly.
	var total float64
	for _, p := range sim.props {
		total += p
	}
	if total <= 0 {
		return 0, 0, ErrExhausted
	}
	u := sim.src.Float64() * total
	r := selectChannel(sim.props, u)
	if r < 0 {
		return 0, 0, ErrExhausted
	}
	return r, total, nil
}

// fire applies reaction r and incrementally refreshes the propensities of
// the channels it may have changed.
//
//lint:hotpath
func (sim *Simulator) fire(r int) error {
	if err := sim.net.Apply(r, sim.state); err != nil {
		return err
	}
	for _, dep := range sim.deps[r] {
		sim.props[dep] = sim.net.Propensity(dep, sim.state)
	}
	sim.steps++
	return nil
}

// Step advances the discrete-time jump chain by one reaction — or, on a
// timed simulator, the continuous-time chain through StepTime — and returns
// the index of the fired reaction. It returns ErrExhausted when the chain
// is absorbed.
func (sim *Simulator) Step() (int, error) {
	if sim.timed {
		r, _, err := sim.StepTime()
		return r, err
	}
	r, _, err := sim.pick()
	if err != nil {
		return 0, err
	}
	if err := sim.fire(r); err != nil {
		// Unreachable for mass-action propensities: a reaction with
		// insufficient reactants has zero propensity and cannot be
		// picked.
		return 0, err
	}
	return r, nil
}

// StepTime advances the continuous-time chain by one reaction: it draws an
// exponential holding time at the total-propensity rate, then fires a
// reaction chosen by the direct method. It returns the fired reaction index
// and the holding time.
func (sim *Simulator) StepTime() (reaction int, hold float64, err error) {
	r, total, err := sim.pick()
	if err != nil {
		return 0, 0, err
	}
	hold = sim.src.Exp(total)
	if err := sim.fire(r); err != nil {
		return 0, 0, err
	}
	sim.time += hold
	return r, hold, nil
}
