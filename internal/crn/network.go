// Package crn implements stochastic chemical reaction networks with
// mass-action kinetics, the formalism the paper uses to define its
// Lotka–Volterra models (§1.3). It supports reactions with up to three
// reactants (the Condon et al. baselines in internal/protocols use
// trimolecular rules), exact Gillespie simulation in continuous time,
// discrete-time jump-chain stepping and tau-leaping. The two simulators
// share the Engine interface, which NewEngine builds by name and Run
// drives.
//
// Propensities follow standard stochastic mass-action kinetics with unit
// volume: a reaction with reactant multiset {m_s copies of species s} and
// rate constant k has propensity k · Π_s x_s·(x_s−1)···(x_s−m_s+1) / m_s!.
// In particular X+X at rate γ has propensity γ·x(x−1)/2 and X+Y at rate α
// has propensity α·x·y, exactly as in the paper.
package crn

import (
	"fmt"
	"strings"
	"sync"
)

// MaxReactants is the largest supported reactant multiset size. Trimolecular
// reactions are the most complex used by any system in this repository.
const MaxReactants = 3

// Species identifies a species by its index in the owning Network.
type Species int

// Reaction is a single reaction channel with mass-action kinetics.
type Reaction struct {
	// Name is a human-readable label used in traces and errors.
	Name string
	// Reactants lists the consumed species; repeats express stoichiometry
	// (e.g. [A, A] for A+A → ...). At most MaxReactants entries.
	Reactants []Species
	// Products lists the produced species, with repeats for stoichiometry.
	Products []Species
	// Rate is the non-negative rate constant.
	Rate float64
}

// Network is an immutable set of species and reaction channels. Build one
// with NewNetwork and AddReaction (or the Builder helpers), then hand it to
// a Simulator.
type Network struct {
	speciesNames []string
	reactions    []Reaction
	// delta[r][s] is the net change of species s when reaction r fires.
	delta [][]int
	// reactantCount[r][s] is the multiplicity of s among r's reactants.
	reactantCount [][]int

	// depMu guards the lazily built dependency graph. Simulators for the
	// same network may be constructed concurrently (one per Monte-Carlo
	// worker), so the first compile must be race-free; AddReaction
	// invalidates the graph and is documented as construction-time only.
	depMu sync.Mutex
	// deps[r] lists the reactions whose propensity can change when r
	// fires (always including r itself), in ascending index order.
	deps [][]int
}

// NewNetwork creates a network over the given named species. Species indexes
// follow the argument order. It returns an error if no species are given or
// names repeat.
func NewNetwork(speciesNames ...string) (*Network, error) {
	if len(speciesNames) == 0 {
		return nil, fmt.Errorf("crn: network needs at least one species")
	}
	seen := make(map[string]bool, len(speciesNames))
	for _, name := range speciesNames {
		if name == "" {
			return nil, fmt.Errorf("crn: empty species name")
		}
		if seen[name] {
			return nil, fmt.Errorf("crn: duplicate species name %q", name)
		}
		seen[name] = true
	}
	names := make([]string, len(speciesNames))
	copy(names, speciesNames)
	return &Network{speciesNames: names}, nil
}

// NumSpecies returns the number of species in the network.
func (n *Network) NumSpecies() int { return len(n.speciesNames) }

// NumReactions returns the number of reaction channels.
func (n *Network) NumReactions() int { return len(n.reactions) }

// SpeciesName returns the name of species s, or "?" if out of range.
func (n *Network) SpeciesName(s Species) string {
	if s < 0 || int(s) >= len(n.speciesNames) {
		return "?"
	}
	return n.speciesNames[s]
}

// SpeciesByName returns the index of the named species.
func (n *Network) SpeciesByName(name string) (Species, error) {
	for i, s := range n.speciesNames {
		if s == name {
			return Species(i), nil
		}
	}
	return 0, fmt.Errorf("crn: unknown species %q", name)
}

// Reaction returns reaction channel r. It panics on out-of-range r, which
// indicates a programming error rather than bad input.
func (n *Network) Reaction(r int) Reaction { return n.reactions[r] }

// AddReaction appends a reaction channel. The reaction is validated: the
// rate must be non-negative and finite, species must exist, and at most
// MaxReactants reactants are allowed. An empty reactant list expresses a
// constant-rate source reaction (∅ → products).
func (n *Network) AddReaction(r Reaction) error {
	if r.Rate < 0 {
		return fmt.Errorf("crn: reaction %q has negative rate %v", r.Name, r.Rate)
	}
	if r.Rate != r.Rate || r.Rate > 1e300 {
		return fmt.Errorf("crn: reaction %q has non-finite rate", r.Name)
	}
	if len(r.Reactants) > MaxReactants {
		return fmt.Errorf("crn: reaction %q has %d reactants, max %d", r.Name, len(r.Reactants), MaxReactants)
	}
	for _, s := range append(append([]Species{}, r.Reactants...), r.Products...) {
		if s < 0 || int(s) >= len(n.speciesNames) {
			return fmt.Errorf("crn: reaction %q references unknown species index %d", r.Name, s)
		}
	}
	if r.Name == "" {
		r.Name = n.defaultName(r)
	}
	// Precompute stoichiometry.
	delta := make([]int, len(n.speciesNames))
	count := make([]int, len(n.speciesNames))
	for _, s := range r.Reactants {
		delta[s]--
		count[s]++
	}
	for _, s := range r.Products {
		delta[s]++
	}
	// Defensive copies so callers cannot mutate the network afterwards.
	stored := Reaction{
		Name:      r.Name,
		Reactants: append([]Species(nil), r.Reactants...),
		Products:  append([]Species(nil), r.Products...),
		Rate:      r.Rate,
	}
	n.reactions = append(n.reactions, stored)
	n.delta = append(n.delta, delta)
	n.reactantCount = append(n.reactantCount, count)
	n.depMu.Lock()
	n.deps = nil
	n.depMu.Unlock()
	return nil
}

// MustAddReaction is AddReaction for statically known-valid reactions in
// constructors; it panics on error.
func (n *Network) MustAddReaction(r Reaction) {
	if err := n.AddReaction(r); err != nil {
		panic(err)
	}
}

func (n *Network) defaultName(r Reaction) string {
	side := func(ss []Species) string {
		if len(ss) == 0 {
			return "∅"
		}
		parts := make([]string, len(ss))
		for i, s := range ss {
			parts[i] = n.SpeciesName(s)
		}
		return strings.Join(parts, "+")
	}
	return side(r.Reactants) + "->" + side(r.Products)
}

// Propensity returns the mass-action propensity of reaction r in the given
// state. It panics if r is out of range or the state has the wrong length
// (programming errors). Counts below the required stoichiometry yield 0.
func (n *Network) Propensity(r int, state []int) float64 {
	if len(state) != len(n.speciesNames) {
		panic(fmt.Sprintf("crn: state has %d species, network has %d", len(state), len(n.speciesNames)))
	}
	rate := n.reactions[r].Rate
	if rate == 0 {
		return 0
	}
	p := rate
	for s, m := range n.reactantCount[r] {
		if m == 0 {
			continue
		}
		x := state[s]
		if x < m {
			return 0
		}
		// Falling factorial x·(x−1)···(x−m+1) divided by m!.
		switch m {
		case 1:
			p *= float64(x)
		case 2:
			p *= float64(x) * float64(x-1) / 2
		case 3:
			p *= float64(x) * float64(x-1) * float64(x-2) / 6
		default:
			// Unreachable: AddReaction caps multiset size at
			// MaxReactants.
			panic("crn: unsupported stoichiometry")
		}
	}
	return p
}

// TotalPropensity returns the sum of all reaction propensities in state.
func (n *Network) TotalPropensity(state []int) float64 {
	var total float64
	for r := range n.reactions {
		total += n.Propensity(r, state)
	}
	return total
}

// Apply fires reaction r on state in place. It returns an error if any count
// would go negative, leaving state unchanged in that case.
func (n *Network) Apply(r int, state []int) error {
	for s, d := range n.delta[r] {
		if d < 0 && state[s]+d < 0 {
			return fmt.Errorf("crn: firing %q would drive %s below zero", n.reactions[r].Name, n.SpeciesName(Species(s)))
		}
	}
	for s, d := range n.delta[r] {
		state[s] += d
	}
	return nil
}

// Delta returns the net stoichiometric change of species s under reaction r.
func (n *Network) Delta(r int, s Species) int { return n.delta[r][s] }

// dependencyGraph returns the species→reaction dependency graph, building
// and caching it on first use. Entry r lists the indexes of the reactions
// whose propensity can change when reaction r fires: every reaction with a
// reactant among the species whose count r changes, always with r itself
// first. The slices are shared by every simulator over the network:
// callers must not modify them.
func (n *Network) dependencyGraph() [][]int {
	n.depMu.Lock()
	defer n.depMu.Unlock()
	if n.deps != nil {
		return n.deps
	}
	nr := len(n.reactions)
	// For each species, which reactions read it (have it as reactant)?
	readers := make([][]int, len(n.speciesNames))
	for r := 0; r < nr; r++ {
		for s, m := range n.reactantCount[r] {
			if m > 0 {
				readers[s] = append(readers[s], r)
			}
		}
	}
	deps := make([][]int, nr)
	for r := 0; r < nr; r++ {
		seen := make(map[int]bool, nr)
		seen[r] = true
		deps[r] = append(deps[r], r)
		for s := range n.speciesNames {
			if n.delta[r][s] == 0 {
				continue
			}
			for _, other := range readers[s] {
				if !seen[other] {
					seen[other] = true
					deps[r] = append(deps[r], other)
				}
			}
		}
	}
	n.deps = deps
	return deps
}
