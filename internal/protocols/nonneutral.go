package protocols

import (
	"fmt"
	"sync"

	"lvmajority/internal/crn"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// GeneralLVParams generalizes the paper's Lotka–Volterra models to fully
// species-specific rates: besides the per-species competition rates α_i,
// γ_i the paper already allows, each species gets its own birth rate β_i
// and death rate δ_i. The paper's neutrality assumption corresponds to
// Beta[0] = Beta[1] and Delta[0] = Delta[1]; breaking it models a fitness
// difference between the two strains, the ablation measured by the
// E-FITNESS experiment.
type GeneralLVParams struct {
	// Beta holds the per-species birth rates β₀, β₁.
	Beta [2]float64
	// Delta holds the per-species death rates δ₀, δ₁.
	Delta [2]float64
	// Alpha holds the interspecific competition rates α₀, α₁.
	Alpha [2]float64
	// Gamma holds the intraspecific competition rates γ₀, γ₁.
	Gamma [2]float64
	// Competition selects the interference model.
	Competition lv.Competition
}

// FromNeutral lifts the paper's (species-independent β, δ) parameters into
// the generalized form.
func FromNeutral(p lv.Params) GeneralLVParams {
	return GeneralLVParams{
		Beta:        [2]float64{p.Beta, p.Beta},
		Delta:       [2]float64{p.Delta, p.Delta},
		Alpha:       p.Alpha,
		Gamma:       p.Gamma,
		Competition: p.Competition,
	}
}

// Validate reports whether the parameters are well formed.
func (p GeneralLVParams) Validate() error {
	for i := 0; i < 2; i++ {
		for _, r := range []struct {
			name string
			v    float64
		}{
			{"beta", p.Beta[i]}, {"delta", p.Delta[i]},
			{"alpha", p.Alpha[i]}, {"gamma", p.Gamma[i]},
		} {
			if r.v < 0 || r.v != r.v || r.v > 1e300 {
				return fmt.Errorf("protocols: bad rate %s%d=%v", r.name, i, r.v)
			}
		}
	}
	if p.Competition != lv.SelfDestructive && p.Competition != lv.NonSelfDestructive {
		return fmt.Errorf("protocols: unknown competition model %d", p.Competition)
	}
	return nil
}

// Network builds the chemical reaction network of the generalized model.
func (p GeneralLVParams) Network() (*crn.Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	net, err := crn.NewNetwork("X0", "X1")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		self := crn.Species(i)
		other := crn.Species(1 - i)
		var interProducts, intraProducts []crn.Species
		if p.Competition == lv.NonSelfDestructive {
			interProducts = []crn.Species{self}
			intraProducts = []crn.Species{self}
		}
		reactions := []crn.Reaction{
			{Name: fmt.Sprintf("birth%d", i), Reactants: []crn.Species{self}, Products: []crn.Species{self, self}, Rate: p.Beta[i]},
			{Name: fmt.Sprintf("death%d", i), Reactants: []crn.Species{self}, Products: nil, Rate: p.Delta[i]},
			{Name: fmt.Sprintf("inter%d", i), Reactants: []crn.Species{self, other}, Products: interProducts, Rate: p.Alpha[i]},
			{Name: fmt.Sprintf("intra%d", i), Reactants: []crn.Species{self, self}, Products: intraProducts, Rate: p.Gamma[i]},
		}
		for _, r := range reactions {
			if err := net.AddReaction(r); err != nil {
				return nil, err
			}
		}
	}
	return net, nil
}

// GeneralLVProtocol runs the generalized (possibly non-neutral) two-species
// LV chain on the internal/crn engine and adapts it to the
// consensus.Protocol interface. For neutral parameters it agrees with
// consensus.LVProtocol (which runs on the specialized internal/lv sampler)
// — a cross-validation exercised by the test suite.
type GeneralLVProtocol struct {
	// Params are the generalized rates.
	Params GeneralLVParams
	// MaxSteps bounds each trial; zero uses lv.DefaultMaxSteps.
	MaxSteps int

	// netOnce caches the immutable network (and its compiled dependency
	// graph) across trials.
	netOnce sync.Once
	net     *crn.Network
	netErr  error
}

// Name implements consensus.Protocol.
func (p *GeneralLVProtocol) Name() string {
	return fmt.Sprintf("general LV (%s, beta=%v delta=%v)", p.Params.Competition, p.Params.Beta, p.Params.Delta)
}

// Trial implements consensus.Protocol.
func (p *GeneralLVProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("protocols: population %d too small", n)
	}
	if delta < 0 || delta > n-2 || (n-delta)%2 != 0 {
		return false, fmt.Errorf("protocols: infeasible gap %d for n=%d", delta, n)
	}
	p.netOnce.Do(func() { p.net, p.netErr = p.Params.Network() })
	net, err := p.net, p.netErr
	if err != nil {
		return false, err
	}
	b := (n - delta) / 2
	sim, err := crn.NewSimulator(net, []int{n - b, b}, src)
	if err != nil {
		return false, err
	}
	maxSteps := p.MaxSteps
	if maxSteps <= 0 {
		maxSteps = lv.DefaultMaxSteps
	}
	stop := func(state []int) bool { return state[0] == 0 || state[1] == 0 }
	res, err := crn.Run(sim, stop, maxSteps, 0)
	if err != nil {
		return false, err
	}
	state := sim.State()
	if !res.Stopped && !res.Absorbed {
		return false, fmt.Errorf("protocols: general LV trial exhausted %d steps", maxSteps)
	}
	return state[0] > 0 && state[1] == 0, nil
}
