package crn

import (
	"math"
	"testing"
	"testing/quick"
)

func mustNetwork(t *testing.T, names ...string) *Network {
	t.Helper()
	net, err := NewNetwork(names...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(); err == nil {
		t.Error("NewNetwork() with no species did not error")
	}
	if _, err := NewNetwork("A", "A"); err == nil {
		t.Error("duplicate species name did not error")
	}
	if _, err := NewNetwork(""); err == nil {
		t.Error("empty species name did not error")
	}
}

func TestSpeciesByName(t *testing.T) {
	net := mustNetwork(t, "X0", "X1")
	s, err := net.SpeciesByName("X1")
	if err != nil || s != 1 {
		t.Errorf("SpeciesByName(X1) = %v, %v; want 1, nil", s, err)
	}
	if _, err := net.SpeciesByName("nope"); err == nil {
		t.Error("unknown species did not error")
	}
	if got := net.SpeciesName(Species(99)); got != "?" {
		t.Errorf("SpeciesName(out of range) = %q, want ?", got)
	}
}

func TestAddReactionValidation(t *testing.T) {
	net := mustNetwork(t, "A", "B")
	cases := []struct {
		name string
		r    Reaction
	}{
		{"negative rate", Reaction{Reactants: []Species{0}, Rate: -1}},
		{"NaN rate", Reaction{Reactants: []Species{0}, Rate: math.NaN()}},
		{"too many reactants", Reaction{Reactants: []Species{0, 0, 0, 0}, Rate: 1}},
		{"unknown reactant", Reaction{Reactants: []Species{5}, Rate: 1}},
		{"unknown product", Reaction{Reactants: []Species{0}, Products: []Species{-1}, Rate: 1}},
	}
	for _, tc := range cases {
		if err := net.AddReaction(tc.r); err == nil {
			t.Errorf("%s: AddReaction did not error", tc.name)
		}
	}
	if net.NumReactions() != 0 {
		t.Errorf("invalid reactions were stored: %d", net.NumReactions())
	}
}

func TestDefaultName(t *testing.T) {
	net := mustNetwork(t, "A", "B")
	net.MustAddReaction(Reaction{Reactants: []Species{0, 1}, Products: []Species{1}, Rate: 1})
	if got := net.Reaction(0).Name; got != "A+B->B" {
		t.Errorf("default name = %q, want A+B->B", got)
	}
	net.MustAddReaction(Reaction{Products: []Species{0}, Rate: 1})
	if got := net.Reaction(1).Name; got != "∅->A" {
		t.Errorf("default name = %q, want ∅->A", got)
	}
}

func TestPropensityFormulas(t *testing.T) {
	net := mustNetwork(t, "X", "Y")
	net.MustAddReaction(Reaction{Name: "birth", Reactants: []Species{0}, Products: []Species{0, 0}, Rate: 2})
	net.MustAddReaction(Reaction{Name: "pair-cross", Reactants: []Species{0, 1}, Rate: 3})
	net.MustAddReaction(Reaction{Name: "pair-self", Reactants: []Species{0, 0}, Rate: 4})
	net.MustAddReaction(Reaction{Name: "triple", Reactants: []Species{0, 0, 0}, Rate: 6})
	net.MustAddReaction(Reaction{Name: "source", Rate: 5})

	state := []int{7, 3}
	cases := []struct {
		r    int
		want float64
	}{
		{0, 2 * 7},             // β·x
		{1, 3 * 7 * 3},         // α·x·y
		{2, 4 * 7 * 6 / 2},     // γ·x(x−1)/2
		{3, 6 * 7 * 6 * 5 / 6}, // k·x(x−1)(x−2)/6
		{4, 5},                 // constant source
	}
	for _, tc := range cases {
		if got := net.Propensity(tc.r, state); got != tc.want {
			t.Errorf("Propensity(%s) = %v, want %v", net.Reaction(tc.r).Name, got, tc.want)
		}
	}
}

func TestPropensityInsufficientCounts(t *testing.T) {
	net := mustNetwork(t, "X")
	net.MustAddReaction(Reaction{Name: "pair", Reactants: []Species{0, 0}, Rate: 1})
	net.MustAddReaction(Reaction{Name: "triple", Reactants: []Species{0, 0, 0}, Rate: 1})
	for _, state := range [][]int{{0}, {1}} {
		if got := net.Propensity(0, state); got != 0 {
			t.Errorf("pair propensity at x=%d is %v, want 0", state[0], got)
		}
	}
	if got := net.Propensity(1, []int{2}); got != 0 {
		t.Errorf("triple propensity at x=2 is %v, want 0", got)
	}
}

func TestPropensityNonNegativeProperty(t *testing.T) {
	net := mustNetwork(t, "A", "B")
	net.MustAddReaction(Reaction{Reactants: []Species{0, 1}, Rate: 1.5})
	net.MustAddReaction(Reaction{Reactants: []Species{0, 0}, Rate: 0.5})
	err := quick.Check(func(a, b uint8) bool {
		state := []int{int(a), int(b)}
		for r := 0; r < net.NumReactions(); r++ {
			if net.Propensity(r, state) < 0 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTotalPropensityMatchesPaperPhi(t *testing.T) {
	// φ(x0, x1) = Σ_i (αi·x0·x1 + β·xi + δ·xi + γi·xi(xi−1)/2), Eq. §1.3.
	const (
		beta   = 1.25
		delta  = 0.75
		alpha0 = 0.5
		alpha1 = 1.5
		gamma0 = 0.25
		gamma1 = 2.0
	)
	net := mustNetwork(t, "X0", "X1")
	for i := Species(0); i < 2; i++ {
		other := 1 - i
		alpha := []float64{alpha0, alpha1}[i]
		gamma := []float64{gamma0, gamma1}[i]
		net.MustAddReaction(Reaction{Reactants: []Species{i}, Products: []Species{i, i}, Rate: beta})
		net.MustAddReaction(Reaction{Reactants: []Species{i}, Rate: delta})
		net.MustAddReaction(Reaction{Reactants: []Species{i, other}, Rate: alpha})
		net.MustAddReaction(Reaction{Reactants: []Species{i, i}, Rate: gamma})
	}
	for _, st := range [][2]int{{0, 0}, {1, 0}, {3, 5}, {10, 10}, {100, 1}} {
		x0, x1 := float64(st[0]), float64(st[1])
		want := alpha0*x0*x1 + alpha1*x0*x1 +
			(beta+delta)*(x0+x1) +
			gamma0*x0*(x0-1)/2 + gamma1*x1*(x1-1)/2
		got := net.TotalPropensity([]int{st[0], st[1]})
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("state %v: total propensity %v, want %v", st, got, want)
		}
	}
}

func TestApply(t *testing.T) {
	net := mustNetwork(t, "A", "B")
	net.MustAddReaction(Reaction{Name: "convert", Reactants: []Species{0}, Products: []Species{1, 1}, Rate: 1})
	state := []int{3, 0}
	if err := net.Apply(0, state); err != nil {
		t.Fatal(err)
	}
	if state[0] != 2 || state[1] != 2 {
		t.Errorf("state after convert = %v, want [2 2]", state)
	}
}

func TestApplyUnderflow(t *testing.T) {
	net := mustNetwork(t, "A")
	net.MustAddReaction(Reaction{Name: "die", Reactants: []Species{0}, Rate: 1})
	state := []int{0}
	if err := net.Apply(0, state); err == nil {
		t.Error("Apply below zero did not error")
	}
	if state[0] != 0 {
		t.Errorf("failed Apply modified state: %v", state)
	}
}

func TestDelta(t *testing.T) {
	net := mustNetwork(t, "A", "B")
	net.MustAddReaction(Reaction{Reactants: []Species{0, 0}, Products: []Species{0, 1}, Rate: 1})
	if got := net.Delta(0, 0); got != -1 {
		t.Errorf("Delta(A) = %d, want -1", got)
	}
	if got := net.Delta(0, 1); got != 1 {
		t.Errorf("Delta(B) = %d, want 1", got)
	}
}

func TestMustAddReactionPanics(t *testing.T) {
	net := mustNetwork(t, "A")
	defer func() {
		if recover() == nil {
			t.Error("MustAddReaction with bad reaction did not panic")
		}
	}()
	net.MustAddReaction(Reaction{Rate: -1})
}

func TestReactionDefensiveCopy(t *testing.T) {
	net := mustNetwork(t, "A", "B")
	reactants := []Species{0}
	net.MustAddReaction(Reaction{Reactants: reactants, Rate: 1})
	reactants[0] = 1
	if got := net.Reaction(0).Reactants[0]; got != 0 {
		t.Error("AddReaction aliased caller's reactant slice")
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
