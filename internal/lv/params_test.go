package lv

import (
	"math"
	"strings"
	"testing"
)

func TestCompetitionString(t *testing.T) {
	if got := SelfDestructive.String(); got != "self-destructive" {
		t.Errorf("got %q", got)
	}
	if got := NonSelfDestructive.String(); got != "non-self-destructive" {
		t.Errorf("got %q", got)
	}
	if got := Competition(0).String(); !strings.Contains(got, "0") {
		t.Errorf("unknown competition rendered as %q", got)
	}
}

func TestNeutral(t *testing.T) {
	p := Neutral(1, 2, 3, 4, SelfDestructive)
	if p.Beta != 1 || p.Delta != 2 {
		t.Errorf("beta/delta = %v/%v", p.Beta, p.Delta)
	}
	if p.Alpha != [2]float64{3, 3} || p.Gamma != [2]float64{4, 4} {
		t.Errorf("alpha/gamma = %v/%v", p.Alpha, p.Gamma)
	}
	if !p.IsNeutral() {
		t.Error("Neutral params not neutral")
	}
}

func TestParamsValidate(t *testing.T) {
	valid := Neutral(1, 1, 1, 0, SelfDestructive)
	if err := valid.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Beta: -1, Competition: SelfDestructive},
		{Alpha: [2]float64{-0.5, 1}, Competition: SelfDestructive},
		{Gamma: [2]float64{0, math.NaN()}, Competition: NonSelfDestructive},
		{Beta: 1}, // missing competition model
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestParamsDerived(t *testing.T) {
	p := Params{
		Beta: 1.5, Delta: 0.5,
		Alpha:       [2]float64{2, 3},
		Gamma:       [2]float64{0.5, 1},
		Competition: NonSelfDestructive,
	}
	if got := p.Theta(); got != 2 {
		t.Errorf("Theta = %v, want 2", got)
	}
	if got := p.AlphaSum(); got != 5 {
		t.Errorf("AlphaSum = %v, want 5", got)
	}
	if got := p.AlphaMin(); got != 2 {
		t.Errorf("AlphaMin = %v, want 2", got)
	}
	if got := p.GammaSum(); got != 1.5 {
		t.Errorf("GammaSum = %v, want 1.5", got)
	}
	if p.IsNeutral() {
		t.Error("asymmetric params reported neutral")
	}
}

func TestStateHelpers(t *testing.T) {
	s := State{X0: 7, X1: 3}
	if s.Total() != 10 || s.Gap() != 4 || s.AbsGap() != 4 || s.Min() != 3 {
		t.Errorf("helpers wrong for %+v", s)
	}
	r := State{X0: 3, X1: 7}
	if r.Gap() != -4 || r.AbsGap() != 4 {
		t.Errorf("gap helpers wrong for %+v", r)
	}
	if s.Consensus() {
		t.Error("non-consensus state reported consensus")
	}
	if err := (State{X0: -1}).Validate(); err == nil {
		t.Error("negative state accepted")
	}
}

func TestStateWinner(t *testing.T) {
	cases := []struct {
		s    State
		want int
	}{
		{State{5, 0}, 0},
		{State{0, 5}, 1},
		{State{0, 0}, -1},
		{State{3, 3}, -1},
	}
	for _, tc := range cases {
		if got := tc.s.Winner(); got != tc.want {
			t.Errorf("Winner(%+v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestConsensusProbabilityExact(t *testing.T) {
	if got := ConsensusProbabilityExact(State{X0: 3, X1: 1}); got != 0.75 {
		t.Errorf("got %v, want 0.75", got)
	}
	// Orientation-independent.
	if got := ConsensusProbabilityExact(State{X0: 1, X1: 3}); got != 0.75 {
		t.Errorf("got %v, want 0.75", got)
	}
	if got := ConsensusProbabilityExact(State{}); got != 0 {
		t.Errorf("got %v for empty state, want 0", got)
	}
}
