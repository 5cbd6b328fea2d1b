package crn

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lvmajority/internal/rng"
)

func TestParseSelfDestructiveLV(t *testing.T) {
	const text = `
# The paper's model (1), neutral, alpha = 0.5 per direction.
species: X0 X1
X0 -> 2 X0 @ 1      # birth
X1 -> 2 X1 @ 1
X0 -> 0 @ 1         # death
X1 -> 0 @ 1
X0 + X1 -> 0 @ 0.5  # interspecific competition (both die)
X1 + X0 -> 0 @ 0.5
`
	net, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumSpecies() != 2 || net.NumReactions() != 6 {
		t.Fatalf("got %d species, %d reactions", net.NumSpecies(), net.NumReactions())
	}
	// Birth reaction: X0 -> X0 + X0 must have delta +1 and propensity
	// beta*x0.
	if d := net.Delta(0, 0); d != 1 {
		t.Errorf("birth delta = %d, want 1", d)
	}
	state := []int{10, 20}
	if p := net.Propensity(4, state); p != 0.5*10*20 {
		t.Errorf("competition propensity = %v, want 100", p)
	}
}

func TestParseInfersSpeciesInOrderOfAppearance(t *testing.T) {
	net, err := Parse("A + B -> C @ 1\nC -> 0 @ 2\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "C"}
	for i, name := range want {
		if got := net.SpeciesName(Species(i)); got != name {
			t.Errorf("species %d = %q, want %q", i, got, name)
		}
	}
}

func TestParseCoefficients(t *testing.T) {
	// "2 X" spaced, "2X" compact, and repeats must all mean X + X.
	for _, text := range []string{
		"X + X -> 0 @ 3",
		"2 X -> 0 @ 3",
		"2X -> 0 @ 3",
	} {
		net, err := Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		r := net.Reaction(0)
		if len(r.Reactants) != 2 || r.Reactants[0] != 0 || r.Reactants[1] != 0 {
			t.Errorf("%q: reactants %v, want [X X]", text, r.Reactants)
		}
		// Propensity must use the x(x-1)/2 falling factorial.
		if p := net.Propensity(0, []int{4}); p != 3*4*3/2.0 {
			t.Errorf("%q: propensity %v, want 18", text, p)
		}
	}
}

func TestParseEmptySides(t *testing.T) {
	for _, empty := range []string{"0", "∅"} {
		net, err := Parse("species: X\n" + empty + " -> X @ 5\nX -> " + empty + " @ 7\n")
		if err != nil {
			t.Fatalf("%q: %v", empty, err)
		}
		source := net.Reaction(0)
		if len(source.Reactants) != 0 || len(source.Products) != 1 {
			t.Errorf("source reaction parsed as %v", source)
		}
		// A source reaction has constant propensity equal to its rate.
		if p := net.Propensity(0, []int{123}); p != 5 {
			t.Errorf("source propensity %v, want 5", p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
		wantLine   int
	}{
		{"missing arrow", "X @ 1\n", 1},
		{"missing rate", "X -> 0\n", 1},
		{"bad rate", "X -> 0 @ abc\n", 1},
		{"negative rate", "X -> 0 @ -1\n", 1},
		{"too many reactants", "X + X + X + X -> 0 @ 1\n", 1},
		{"undeclared species", "species: X\nX -> Y @ 1\n", 2},
		{"duplicate directive", "species: X\nspecies: Y\n", 2},
		{"late directive", "X -> 0 @ 1\nspecies: X\n", 2},
		{"empty directive", "species:\n", 1},
		{"digit-leading name", "1X2 + -> 0 @ 1\n", 1},
		{"bad character", "X$ -> 0 @ 1\n", 1},
		{"empty file", "# nothing here\n", 1},
		{"zero coefficient", "0 X -> 0 @ 1\n", 1},
		{"empty term", "X + -> 0 @ 1\n", 1},
		{"duplicate species in directive", "species: X X\n", 1},
	}
	for _, tc := range cases {
		_, err := Parse(tc.text)
		if err == nil {
			t.Errorf("%s: parse succeeded", tc.name)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *ParseError", tc.name, err)
			continue
		}
		if pe.Line != tc.wantLine {
			t.Errorf("%s: error on line %d, want %d (%v)", tc.name, pe.Line, tc.wantLine, err)
		}
	}
}

func TestParseLineNumbersSkipCommentsAndBlanks(t *testing.T) {
	_, err := Parse("# header\n\nspecies: X\n\nX -> Y @ 1\n")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v", err)
	}
	if pe.Line != 5 {
		t.Errorf("error line %d, want 5", pe.Line)
	}
}

// TestFormatParseRoundTrip checks that Format is a right inverse of Parse:
// parsing the formatted text reproduces the species table, stoichiometry,
// and rates exactly.
func TestFormatParseRoundTrip(t *testing.T) {
	net, err := NewNetwork("X0", "X1", "R")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Reaction{
		{Reactants: []Species{0}, Products: []Species{0, 0}, Rate: 1},
		{Reactants: []Species{0, 1}, Products: nil, Rate: 0.25},
		{Reactants: nil, Products: []Species{2}, Rate: 10},
		{Reactants: []Species{2, 0, 0}, Products: []Species{1}, Rate: 1e-3},
	} {
		if err := net.AddReaction(r); err != nil {
			t.Fatal(err)
		}
	}
	text := Format(net)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	if back.NumSpecies() != net.NumSpecies() || back.NumReactions() != net.NumReactions() {
		t.Fatalf("round trip changed shape: %s", text)
	}
	for i := 0; i < net.NumSpecies(); i++ {
		if net.SpeciesName(Species(i)) != back.SpeciesName(Species(i)) {
			t.Errorf("species %d renamed", i)
		}
	}
	for r := 0; r < net.NumReactions(); r++ {
		a, b := net.Reaction(r), back.Reaction(r)
		if !reflect.DeepEqual(a.Reactants, b.Reactants) ||
			!reflect.DeepEqual(a.Products, b.Products) || a.Rate != b.Rate {
			t.Errorf("reaction %d changed: %+v vs %+v", r, a, b)
		}
	}
}

// TestFormatRoundTripRandomNetworks drives the round trip property with
// randomly generated networks.
func TestFormatRoundTripRandomNetworks(t *testing.T) {
	src := rng.New(31)
	build := func(nSpecies, nReactions uint8) bool {
		ns := 1 + int(nSpecies%5)
		names := make([]string, ns)
		for i := range names {
			names[i] = "S" + string(rune('A'+i))
		}
		net, err := NewNetwork(names...)
		if err != nil {
			return false
		}
		for r := 0; r < 1+int(nReactions%8); r++ {
			var re Reaction
			for k := src.Intn(MaxReactants + 1); k > 0; k-- {
				re.Reactants = append(re.Reactants, Species(src.Intn(ns)))
			}
			for k := src.Intn(4); k > 0; k-- {
				re.Products = append(re.Products, Species(src.Intn(ns)))
			}
			re.Rate = float64(src.Intn(1000)) / 64
			if err := net.AddReaction(re); err != nil {
				return false
			}
		}
		back, err := Parse(Format(net))
		if err != nil {
			return false
		}
		if back.NumReactions() != net.NumReactions() {
			return false
		}
		for r := 0; r < net.NumReactions(); r++ {
			a, b := net.Reaction(r), back.Reaction(r)
			if !reflect.DeepEqual(a.Reactants, b.Reactants) ||
				!reflect.DeepEqual(a.Products, b.Products) || a.Rate != b.Rate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(build, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParsedNetworkSimulates is the integration check: a parsed network
// must drive the simulator, and a pure-death network must reach absorption.
func TestParsedNetworkSimulates(t *testing.T) {
	net, err := Parse("species: X\nX -> 0 @ 1\n")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(net, []int{50}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim, nil, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Absorbed || sim.Count(0) != 0 || res.Steps != 50 {
		t.Errorf("pure death chain: %+v, final count %d", res, sim.Count(0))
	}
}

func TestFormatStartsWithSpeciesDirective(t *testing.T) {
	net, err := Parse("B -> A @ 1\n")
	if err != nil {
		t.Fatal(err)
	}
	text := Format(net)
	if !strings.HasPrefix(text, "species: B A\n") {
		t.Errorf("Format output does not pin species order:\n%s", text)
	}
}
