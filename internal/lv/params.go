// Package lv implements the paper's central objects: discrete, stochastic
// two-species competitive Lotka–Volterra chains (models (1) and (2) of
// §1.3) under self-destructive and non-self-destructive interference
// competition, with the full event accounting used by the analysis —
// consensus time T(S), individual events I(S), competitive events K(S),
// bad non-competitive events J(S), and the demographic-noise decomposition
// F = F_ind + F_comp of §1.5.
package lv

import "fmt"

// Competition selects between the two interference-competition models of the
// paper.
type Competition int

const (
	// SelfDestructive is model (1): a competitive encounter removes both
	// participants (Xi + X(1−i) → ∅ and Xi + Xi → ∅).
	SelfDestructive Competition = iota + 1
	// NonSelfDestructive is model (2): a competitive encounter removes
	// only the victim (Xi + X(1−i) → Xi and Xi + Xi → Xi).
	NonSelfDestructive
)

// String returns the competition-model name.
func (c Competition) String() string {
	switch c {
	case SelfDestructive:
		return "self-destructive"
	case NonSelfDestructive:
		return "non-self-destructive"
	default:
		return fmt.Sprintf("Competition(%d)", int(c))
	}
}

// Params are the rate constants of a two-species LV chain. Species are
// indexed 0 and 1; by the paper's convention species 0 is the initial
// majority.
type Params struct {
	// Beta is the per-capita birth rate β (reaction Xi → Xi + Xi).
	Beta float64
	// Delta is the per-capita death rate δ (reaction Xi → ∅).
	Delta float64
	// Alpha holds the interspecific competition rates α₀, α₁; Alpha[i] is
	// the rate at which individuals of species i encounter (and under
	// NSD kill, under SD mutually annihilate with) individuals of the
	// other species.
	Alpha [2]float64
	// Gamma holds the intraspecific competition rates γ₀, γ₁.
	Gamma [2]float64
	// Competition selects self-destructive or non-self-destructive
	// encounters.
	Competition Competition
}

// Neutral returns parameters for a neutral community (identical species) with
// per-species interspecific rate alpha and intraspecific rate gamma.
func Neutral(beta, delta, alpha, gamma float64, c Competition) Params {
	return Params{
		Beta:        beta,
		Delta:       delta,
		Alpha:       [2]float64{alpha, alpha},
		Gamma:       [2]float64{gamma, gamma},
		Competition: c,
	}
}

// Validate reports whether the parameters define a well-formed chain:
// non-negative finite rates and a known competition model.
func (p Params) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"beta", p.Beta}, {"delta", p.Delta},
		{"alpha0", p.Alpha[0]}, {"alpha1", p.Alpha[1]},
		{"gamma0", p.Gamma[0]}, {"gamma1", p.Gamma[1]},
	}
	for _, r := range rates {
		if r.v < 0 {
			return fmt.Errorf("lv: negative rate %s=%v", r.name, r.v)
		}
		if r.v != r.v || r.v > 1e300 {
			return fmt.Errorf("lv: non-finite rate %s", r.name)
		}
	}
	if p.Competition != SelfDestructive && p.Competition != NonSelfDestructive {
		return fmt.Errorf("lv: unknown competition model %d", p.Competition)
	}
	return nil
}

// Theta returns ϑ = β + δ, the total individual-event rate constant.
func (p Params) Theta() float64 { return p.Beta + p.Delta }

// AlphaSum returns α = α₀ + α₁.
func (p Params) AlphaSum() float64 { return p.Alpha[0] + p.Alpha[1] }

// String renders the parameters compactly.
func (p Params) String() string {
	return fmt.Sprintf("lv(%s, beta=%g delta=%g alpha=[%g %g] gamma=[%g %g])",
		p.Competition, p.Beta, p.Delta, p.Alpha[0], p.Alpha[1], p.Gamma[0], p.Gamma[1])
}

// State is a configuration (x₀, x₁) of the two-species chain.
type State struct {
	X0, X1 int
}

// Validate reports whether the state is a legal configuration.
func (s State) Validate() error {
	if s.X0 < 0 || s.X1 < 0 {
		return fmt.Errorf("lv: negative counts in state (%d, %d)", s.X0, s.X1)
	}
	return nil
}

// Total returns x₀ + x₁.
func (s State) Total() int { return s.X0 + s.X1 }

// Gap returns the signed gap x₀ − x₁ (positive while the initial majority
// leads).
func (s State) Gap() int { return s.X0 - s.X1 }

// AbsGap returns |x₀ − x₁|, the gap between current majority and minority.
func (s State) AbsGap() int {
	if g := s.Gap(); g < 0 {
		return -g
	} else {
		return g
	}
}

// Min returns min(x₀, x₁), the current minority count.
func (s State) Min() int { return min(s.X0, s.X1) }

// Consensus reports whether at least one species is extinct.
func (s State) Consensus() bool { return s.X0 == 0 || s.X1 == 0 }

// Winner returns the index of the surviving species in a consensus state, or
// −1 if both species are extinct or the state is not a consensus state.
func (s State) Winner() int {
	switch {
	case s.X0 > 0 && s.X1 == 0:
		return 0
	case s.X1 > 0 && s.X0 == 0:
		return 1
	default:
		return -1
	}
}
