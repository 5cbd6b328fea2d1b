package lv

import (
	"fmt"
	"math"
	"testing"

	"lvmajority/internal/crn"
	"lvmajority/internal/rng"
)

// newCRNSim builds a CRN simulator over a ToNetwork network from an LV
// state.
func newCRNSim(net *crn.Network, initial State, src *rng.Source) (*crn.Simulator, error) {
	return crn.NewSimulator(net, []int{initial.X0, initial.X1}, src)
}

// runCRNToConsensus runs the CRN jump chain to a consensus state and returns
// the winner index, or −1 for double extinction.
func runCRNToConsensus(sim *crn.Simulator) (int, error) {
	_, err := crn.Run(sim, func(state []int) bool {
		return state[0] == 0 || state[1] == 0
	}, 0, 0)
	if err != nil {
		return 0, err
	}
	s := State{X0: sim.Count(0), X1: sim.Count(1)}
	return s.Winner(), nil
}

func TestToNetworkValidation(t *testing.T) {
	if _, err := ToNetwork(Params{Beta: -1, Competition: SelfDestructive}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestToNetworkPropensitiesMatchDirect(t *testing.T) {
	cfgs := []Params{
		Neutral(1.5, 0.5, 0.75, 0.25, SelfDestructive),
		Neutral(1.5, 0.5, 0.75, 0.25, NonSelfDestructive),
		{
			Beta: 1, Delta: 2,
			Alpha:       [2]float64{0.5, 1.5},
			Gamma:       [2]float64{2, 0.5},
			Competition: NonSelfDestructive,
		},
	}
	states := []State{{0, 0}, {1, 0}, {1, 1}, {5, 3}, {17, 29}}
	for _, p := range cfgs {
		net, err := ToNetwork(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			chain, err := NewChain(p, s, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			_, direct := chain.Propensities()
			viaCRN := net.TotalPropensity([]int{s.X0, s.X1})
			if math.Abs(direct-viaCRN) > 1e-9*(1+direct) {
				t.Errorf("%v at %+v: direct total %v, CRN total %v", p, s, direct, viaCRN)
			}
		}
	}
}

func TestToNetworkReactionEffects(t *testing.T) {
	// Each CRN reaction applied to a state must produce the same
	// successor as the direct apply for the matching channel.
	kindsByName := map[string]EventKind{
		"birth0": Birth0, "birth1": Birth1,
		"death0": Death0, "death1": Death1,
		"inter0": Inter0, "inter1": Inter1,
		"intra0": Intra0, "intra1": Intra1,
	}
	for _, comp := range []Competition{SelfDestructive, NonSelfDestructive} {
		p := Neutral(1, 1, 1, 1, comp)
		net, err := ToNetwork(p)
		if err != nil {
			t.Fatal(err)
		}
		start := State{X0: 6, X1: 4}
		for r := 0; r < net.NumReactions(); r++ {
			name := net.Reaction(r).Name
			kind, found := kindsByName[name]
			if !found {
				t.Fatalf("unexpected reaction name %q", name)
			}
			state := []int{start.X0, start.X1}
			if err := net.Apply(r, state); err != nil {
				t.Fatalf("%v/%s: %v", comp, name, err)
			}
			want := apply(p, start, kind)
			got := State{X0: state[0], X1: state[1]}
			if got != want {
				t.Errorf("%v/%s: CRN gives %+v, direct gives %+v", comp, name, got, want)
			}
		}
	}
}

func TestToNetworkSpeciesNames(t *testing.T) {
	net, err := ToNetwork(Neutral(1, 1, 1, 0, SelfDestructive))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"X0", "X1"} {
		if got := net.SpeciesName(crn.Species(i)); got != want {
			t.Errorf("species %d named %q, want %q", i, got, want)
		}
	}
	if net.NumReactions() != 8 {
		t.Errorf("reactions = %d, want 8", net.NumReactions())
	}
	// All names unique.
	seen := map[string]bool{}
	for r := 0; r < net.NumReactions(); r++ {
		name := net.Reaction(r).Name
		if seen[name] {
			t.Errorf("duplicate reaction name %q", name)
		}
		seen[name] = true
	}
	_ = fmt.Sprintf("%v", net)
}
