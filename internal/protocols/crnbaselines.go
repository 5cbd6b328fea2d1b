package protocols

import (
	"fmt"
	"sync"

	"lvmajority/internal/crn"
	"lvmajority/internal/rng"
)

// CRNVariant selects one of the Condon et al. approximate-majority reaction
// networks (§2.2 of the paper). All variants use three species X, Y, B
// except TriMajority, which uses only X and Y with trimolecular rules.
type CRNVariant int

const (
	// SingleB: X+Y → X+B and Y+X → Y+B plus recruitment X+B → X+X,
	// Y+B → Y+Y. A cancellation produces a single blank — the paper notes
	// this variant resembles non-self-destructive competition.
	SingleB CRNVariant = iota + 1
	// DoubleB: X+Y → B+B plus recruitment. Cancellation removes both
	// opinionated molecules — resembling self-destructive competition.
	DoubleB
	// HeavyB: X+Y → B+B+B plus recruitment; two reactants, three
	// products, the "heavy" blank-producing variant.
	HeavyB
	// TriMajority is the two-species trimolecular rule
	// X+X+Y → X+X+X and Y+Y+X → Y+Y+Y.
	TriMajority
)

// String returns the variant name.
func (v CRNVariant) String() string {
	switch v {
	case SingleB:
		return "single-B"
	case DoubleB:
		return "double-B"
	case HeavyB:
		return "heavy-B"
	case TriMajority:
		return "tri-majority"
	default:
		return fmt.Sprintf("CRNVariant(%d)", int(v))
	}
}

// CondonProtocol adapts a Condon et al. CRN to the consensus.Protocol
// interface, running the stochastic jump chain until one opinion is extinct
// (and, for blank-producing variants, all blanks are converted).
type CondonProtocol struct {
	// Variant selects the rule set.
	Variant CRNVariant
	// Rate is the shared rate constant of every reaction; zero defaults
	// to 1 (the rate scales time only, not the jump-chain distribution,
	// when all reactions share it).
	Rate float64
	// MaxSteps bounds each trial; zero defaults to 4000·n.
	MaxSteps int
}

// Name implements consensus.Protocol.
func (c CondonProtocol) Name() string {
	return fmt.Sprintf("Condon %s CRN", c.Variant)
}

// condonNets caches the immutable reaction network (and its compiled
// dependency graph) per (variant, rate), so replicated trials share one
// network instead of rebuilding it per trial.
var condonNets sync.Map // map[condonNetKey]*crn.Network

type condonNetKey struct {
	variant CRNVariant
	rate    float64
}

// network returns the (shared, immutable) reaction network for the variant.
func (c CondonProtocol) network() (*crn.Network, error) {
	// Normalize the rate exactly as buildNetwork does, so Rate=0 and
	// Rate=1 (identical networks) share one cache entry; a NaN rate would
	// never match a sync.Map key, so reject it before the lookup.
	rate := c.Rate
	if rate <= 0 {
		rate = 1
	}
	if rate != rate {
		return nil, fmt.Errorf("protocols: %s CRN has NaN rate", c.Variant)
	}
	key := condonNetKey{variant: c.Variant, rate: rate}
	if cached, ok := condonNets.Load(key); ok {
		return cached.(*crn.Network), nil
	}
	net, err := c.buildNetwork()
	if err != nil {
		return nil, err
	}
	cached, _ := condonNets.LoadOrStore(key, net)
	return cached.(*crn.Network), nil
}

// buildNetwork constructs the reaction network for the variant.
func (c CondonProtocol) buildNetwork() (*crn.Network, error) {
	rate := c.Rate
	if rate <= 0 {
		rate = 1
	}
	switch c.Variant {
	case SingleB, DoubleB, HeavyB:
		net, err := crn.NewNetwork("X", "Y", "B")
		if err != nil {
			return nil, err
		}
		const x, y, b = crn.Species(0), crn.Species(1), crn.Species(2)
		var cancellations []crn.Reaction
		switch c.Variant {
		case SingleB:
			cancellations = []crn.Reaction{
				{Name: "X+Y->X+B", Reactants: []crn.Species{x, y}, Products: []crn.Species{x, b}, Rate: rate},
				{Name: "Y+X->Y+B", Reactants: []crn.Species{y, x}, Products: []crn.Species{y, b}, Rate: rate},
			}
		case DoubleB:
			cancellations = []crn.Reaction{
				{Name: "X+Y->B+B", Reactants: []crn.Species{x, y}, Products: []crn.Species{b, b}, Rate: rate},
			}
		case HeavyB:
			cancellations = []crn.Reaction{
				{Name: "X+Y->B+B+B", Reactants: []crn.Species{x, y}, Products: []crn.Species{b, b, b}, Rate: rate},
			}
		}
		for _, r := range cancellations {
			if err := net.AddReaction(r); err != nil {
				return nil, err
			}
		}
		recruit := []crn.Reaction{
			{Name: "X+B->X+X", Reactants: []crn.Species{x, b}, Products: []crn.Species{x, x}, Rate: rate},
			{Name: "Y+B->Y+Y", Reactants: []crn.Species{y, b}, Products: []crn.Species{y, y}, Rate: rate},
		}
		for _, r := range recruit {
			if err := net.AddReaction(r); err != nil {
				return nil, err
			}
		}
		return net, nil
	case TriMajority:
		net, err := crn.NewNetwork("X", "Y")
		if err != nil {
			return nil, err
		}
		const x, y = crn.Species(0), crn.Species(1)
		rules := []crn.Reaction{
			{Name: "X+X+Y->3X", Reactants: []crn.Species{x, x, y}, Products: []crn.Species{x, x, x}, Rate: rate},
			{Name: "Y+Y+X->3Y", Reactants: []crn.Species{y, y, x}, Products: []crn.Species{y, y, y}, Rate: rate},
		}
		for _, r := range rules {
			if err := net.AddReaction(r); err != nil {
				return nil, err
			}
		}
		return net, nil
	default:
		return nil, fmt.Errorf("protocols: unknown CRN variant %d", c.Variant)
	}
}

// Trial implements consensus.Protocol.
func (c CondonProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("protocols: population %d too small", n)
	}
	if delta < 0 || (n-delta)%2 != 0 || delta > n-2 {
		return false, fmt.Errorf("protocols: infeasible gap %d for n=%d", delta, n)
	}
	net, err := c.network()
	if err != nil {
		return false, err
	}
	b := (n - delta) / 2
	a := n - b
	initial := []int{a, b}
	if net.NumSpecies() == 3 {
		initial = append(initial, 0)
	}
	sim, err := crn.NewSimulator(net, initial, src)
	if err != nil {
		return false, err
	}
	maxSteps := c.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4000 * n
	}
	stop := func(state []int) bool {
		if len(state) == 3 && state[2] != 0 {
			return false
		}
		return state[0] == 0 || state[1] == 0
	}
	res, err := crn.Run(sim, stop, maxSteps, 0)
	if err != nil {
		return false, err
	}
	if !res.Stopped && !res.Absorbed {
		return false, nil // budget exhausted
	}
	return sim.Count(0) > 0 && sim.Count(1) == 0, nil
}
