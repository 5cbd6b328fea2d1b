package crn

import (
	"fmt"
	"math"

	"lvmajority/internal/rng"
)

// LeapOptions configures tau-leaping.
type LeapOptions struct {
	// Epsilon is the relative propensity-change tolerance of the Cao–
	// Gillespie–Petzold step selector (default 0.03).
	Epsilon float64
	// ExactThreshold: when the selected leap would advance the chain by
	// fewer than this many expected reactions, the simulator falls back
	// to exact SSA steps (default 10).
	ExactThreshold float64
}

func (o *LeapOptions) normalize() {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		o.Epsilon = 0.03
	}
	if o.ExactThreshold <= 0 {
		o.ExactThreshold = 10
	}
}

// LeapSimulator runs approximate accelerated stochastic simulation of a
// Network using explicit tau-leaping (Gillespie 2001) with the Cao–
// Gillespie–Petzold (2006) step-size selector, falling back to exact SSA
// steps when leaping would be slower or unsafe. Unlike Simulator it trades
// exactness for speed; its per-time-unit moments converge to the exact
// chain's as Epsilon → 0.
type LeapSimulator struct {
	net   *Network
	state []int
	src   *rng.Source
	opts  LeapOptions

	time  float64
	leaps int
	exact int

	props []float64
	// hor[s] is the highest order of any reaction in which species s
	// appears as a reactant, used by the step selector's g_i factor.
	hor []int

	// delta is scratch space for per-leap species changes.
	delta []int
	// inner is the reusable exact simulator for the SSA fallback.
	inner *Simulator
}

// NewLeapSimulator creates a tau-leaping simulator.
func NewLeapSimulator(net *Network, initial []int, src *rng.Source, opts LeapOptions) (*LeapSimulator, error) {
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
	opts.normalize()
	state := make([]int, len(initial))
	copy(state, initial)

	hor := make([]int, net.NumSpecies())
	for r := 0; r < net.NumReactions(); r++ {
		order := len(net.Reaction(r).Reactants)
		for _, s := range net.Reaction(r).Reactants {
			if order > hor[s] {
				hor[s] = order
			}
		}
	}
	return &LeapSimulator{
		net:   net,
		state: state,
		src:   src,
		opts:  opts,
		props: make([]float64, net.NumReactions()),
		hor:   hor,
		delta: make([]int, len(state)),
	}, nil
}

// State returns a copy of the current state.
func (sim *LeapSimulator) State() []int {
	out := make([]int, len(sim.state))
	copy(out, sim.state)
	return out
}

// StateView returns the live state slice without copying. Callers must not
// modify or retain it past the next Step or Reset call.
func (sim *LeapSimulator) StateView() []int { return sim.state }

// Reset returns the simulator to the given initial state with a fresh
// random stream, reusing its buffers: the clock and leap/fallback counters
// restart at zero.
func (sim *LeapSimulator) Reset(initial []int, src *rng.Source) error {
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
	sim.leaps = 0
	sim.exact = 0
	return nil
}

// Count returns the current count of species s.
func (sim *LeapSimulator) Count(s Species) int { return sim.state[s] }

// Time returns the simulated time.
func (sim *LeapSimulator) Time() float64 { return sim.time }

// Steps returns the number of leaps plus exact fallback reactions taken.
func (sim *LeapSimulator) Steps() int { return sim.leaps + sim.exact }

// selectTau implements the Cao–Gillespie–Petzold step selector: the largest
// tau for which no propensity is expected to change by more than epsilon
// relative (bounded below by per-species count scales).
func (sim *LeapSimulator) selectTau(total float64) float64 {
	eps := sim.opts.Epsilon
	tau := math.Inf(1)
	for s := 0; s < sim.net.NumSpecies(); s++ {
		x := sim.state[s]
		if x == 0 || sim.hor[s] == 0 {
			continue
		}
		// g_i per CGP: 1st order → 1; 2nd order → 2 (2 + 1/(x−1) for
		// the dimerizing case — we use the slightly conservative
		// dimer form whenever a second-order self-reaction exists);
		// 3rd order → 3 (coarse, conservative enough).
		g := float64(sim.hor[s])
		if sim.hor[s] >= 2 && x > 1 {
			g = float64(sim.hor[s]) + 1/float64(x-1)
		}
		// Mean and variance of the one-leap change of species s.
		var mu, sigma2 float64
		for r := 0; r < sim.net.NumReactions(); r++ {
			d := float64(sim.net.Delta(r, Species(s)))
			if d == 0 {
				continue
			}
			mu += d * sim.props[r]
			sigma2 += d * d * sim.props[r]
		}
		bound := math.Max(eps*float64(x)/g, 1)
		if mu != 0 {
			if t := bound / math.Abs(mu); t < tau {
				tau = t
			}
		}
		if sigma2 != 0 {
			if t := bound * bound / sigma2; t < tau {
				tau = t
			}
		}
	}
	if math.IsInf(tau, 1) {
		// No species constrains the leap; advance by one expected
		// reaction at a time.
		tau = 1 / total
	}
	return tau
}

// Step advances the chain by one tau-leap (or a batch of exact fallback
// steps when leaping is not profitable) and returns -1, since a leap fires
// many channels at once. It returns ErrExhausted when the total propensity
// is zero.
func (sim *LeapSimulator) Step() (int, error) {
	var total float64
	for r := range sim.props {
		p := sim.net.Propensity(r, sim.state)
		sim.props[r] = p
		total += p
	}
	if total <= 0 {
		return -1, ErrExhausted
	}

	tau := sim.selectTau(total)
	if tau*total < sim.opts.ExactThreshold {
		// Leaping would fire only a handful of reactions: take that
		// many exact steps instead (the standard fallback rule). The
		// inner exact simulator is reused across fallbacks so the hot
		// path stays allocation-free.
		if sim.inner == nil {
			inner, err := NewSimulator(sim.net, sim.state, sim.src)
			if err != nil {
				return -1, err
			}
			sim.inner = inner
		} else if err := sim.inner.Reset(sim.state, sim.src); err != nil {
			return -1, err
		}
		steps := int(sim.opts.ExactThreshold)
		for i := 0; i < steps; i++ {
			_, hold, err := sim.inner.StepTime()
			if err == ErrExhausted {
				break
			}
			if err != nil {
				return -1, err
			}
			sim.time += hold
			sim.exact++
		}
		copy(sim.state, sim.inner.state)
		return -1, nil
	}

	// Attempt the leap, halving tau on negative excursions.
	for attempt := 0; attempt < 64; attempt++ {
		if ok := sim.tryLeap(tau); ok {
			sim.time += tau
			sim.leaps++
			return -1, nil
		}
		tau /= 2
	}
	return -1, fmt.Errorf("crn: tau-leap failed to find a non-negative step at t=%v", sim.time)
}

// tryLeap samples Poisson firing counts for every channel at step tau and
// applies them if no species goes negative. It reports success.
func (sim *LeapSimulator) tryLeap(tau float64) bool {
	delta := sim.delta
	for s := range delta {
		delta[s] = 0
	}
	for r := range sim.props {
		if sim.props[r] <= 0 {
			continue
		}
		k := sim.src.Poisson(sim.props[r] * tau)
		if k == 0 {
			continue
		}
		for s := range delta {
			delta[s] += k * sim.net.Delta(r, Species(s))
		}
	}
	for s, d := range delta {
		if sim.state[s]+d < 0 {
			return false
		}
	}
	for s, d := range delta {
		sim.state[s] += d
	}
	return true
}
