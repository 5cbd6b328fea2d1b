// Package coupling implements the asynchronous pseudo-coupling of Section
// 5.1 of the paper: a joint Markov chain (Ŝ, N̂) over a two-species
// Lotka–Volterra chain Ŝ and a single-species birth–death chain N̂, driven
// by a shared uniform variable per step. The construction is not a coupling
// in the strict sense — Ŝ only moves at steps where min Ŝ equals N̂ — but it
// preserves the marginal of N̂ and reproduces the marginal of S at the
// stopping times τ(k) (Lemma 11), and it satisfies the pathwise invariants
// of Lemma 10:
//
//	min Ŝ_t ≤ N̂_t   and   J_t(Ŝ) ≤ B_t(N̂)   for all t,
//
// whenever min Ŝ₀ = N̂₀. These invariants are what the test suite checks on
// randomized executions.
package coupling

import (
	"fmt"

	"lvmajority/internal/bd"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// eventClass partitions the LV reaction channels in a given state, following
// the definitions above Lemma 9.
type eventClass int

const (
	// classBadNonCompetitive: an individual (birth/death) reaction that
	// decreases the gap between the current maximum and minimum species
	// while the minimum is positive.
	classBadNonCompetitive eventClass = iota
	// classGoodCompetitive: a competitive reaction under which the
	// current minimum count decreases.
	classGoodCompetitive
	// classOther: everything else.
	classOther
)

// classify assigns the LV channel k in state s to its event class.
func classify(p lv.Params, s lv.State, k lv.EventKind) eventClass {
	next := lv.ApplyEvent(p, s, k)
	if k.IsIndividual() {
		if s.Min() > 0 && next.AbsGap() == s.AbsGap()-1 {
			return classBadNonCompetitive
		}
		return classOther
	}
	if next.Min() < s.Min() {
		return classGoodCompetitive
	}
	return classOther
}

// Coupled is the joint chain (Ŝ, N̂).
type Coupled struct {
	params lv.Params
	dom    *bd.Chain
	src    *rng.Source

	sState lv.State
	nState int

	steps int
	// badEvents is J_t(Ŝ): bad non-competitive events fired in Ŝ.
	badEvents int
	// births is B_t(N̂): birth events fired in N̂.
	births int
	// meetings counts the steps t with min Ŝ_t = N̂_t (the stopping times
	// τ(k) are the times of these meetings).
	meetings int
}

// New creates the coupled chain. The paper's construction requires
// min Ŝ₀ ≤ N̂₀ (with equality for the marginal-recovery property of Lemma
// 11); New enforces min Ŝ₀ ≤ N̂₀ and records the rest.
func New(params lv.Params, initial lv.State, domChain *bd.Chain, n0 int, src *rng.Source) (*Coupled, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if domChain == nil {
		return nil, fmt.Errorf("coupling: nil dominating chain")
	}
	if src == nil {
		return nil, fmt.Errorf("coupling: nil random source")
	}
	if initial.Min() > n0 {
		return nil, fmt.Errorf("coupling: min S0 = %d exceeds N0 = %d", initial.Min(), n0)
	}
	c := &Coupled{params: params, dom: domChain, src: src, sState: initial, nState: n0}
	if initial.Min() == n0 {
		c.meetings = 1
	}
	return c, nil
}

// SState returns the current Ŝ configuration.
func (c *Coupled) SState() lv.State { return c.sState }

// NState returns the current N̂ state.
func (c *Coupled) NState() int { return c.nState }

// Births returns B_t(N̂).
func (c *Coupled) Births() int { return c.births }

// Meetings returns the number of steps so far at which min Ŝ = N̂ held
// before the step was taken (the count of realized stopping times τ(k)).
func (c *Coupled) Meetings() int { return c.meetings }

// Steps returns the number of joint steps taken.
func (c *Coupled) Steps() int { return c.steps }

// Step advances the joint chain by one step using a single shared uniform
// variable, per rules (1a–c) and (2a–c) of §5.1.
func (c *Coupled) Step() error {
	xi := c.src.Float64()
	m := c.nState

	// Rule (1): update N̂.
	p, q := c.dom.Birth(m), c.dom.Death(m)
	if p < 0 || q < 0 || p+q > 1+1e-12 {
		return fmt.Errorf("coupling: invalid dominating probabilities p(%d)=%v q(%d)=%v", m, p, m, q)
	}
	met := c.sState.Min() == c.nState

	switch {
	case xi < p:
		c.nState = m + 1
		c.births++
	case xi >= 1-q:
		c.nState = m - 1
	}

	// Rule (2): update Ŝ only when the chains met before this step.
	if met {
		if err := c.stepS(xi); err != nil {
			return err
		}
	}
	c.steps++
	if c.sState.Min() == c.nState {
		c.meetings++
	}
	return nil
}

// stepS performs the conditional update of Ŝ given the shared uniform xi.
func (c *Coupled) stepS(xi float64) error {
	props, total := lv.PropensitiesFor(c.params, c.sState)
	if total <= 0 {
		// Ŝ is absorbed; it simply stays put.
		return nil
	}

	// Partition the channel propensity mass into the three classes.
	var classSum [3]float64
	for k, v := range props {
		if v <= 0 {
			continue
		}
		classSum[classify(c.params, c.sState, lv.EventKind(k))] += v
	}
	pBad := classSum[classBadNonCompetitive] / total
	qGood := classSum[classGoodCompetitive] / total

	var chosen eventClass
	switch {
	case xi < pBad:
		chosen = classBadNonCompetitive
	case xi >= 1-qGood:
		chosen = classGoodCompetitive
	default:
		chosen = classOther
	}
	if classSum[chosen] <= 0 {
		// The conditional distribution is empty only if its window has
		// zero width, in which case xi cannot land there; floating
		// point can still put xi exactly on a boundary, so treat it as
		// "other".
		chosen = classOther
		if classSum[chosen] <= 0 {
			return nil
		}
	}

	// Sample a channel within the chosen class proportionally to
	// propensity.
	u := c.src.Float64() * classSum[chosen]
	acc := 0.0
	for k, v := range props {
		kind := lv.EventKind(k)
		if v <= 0 || classify(c.params, c.sState, kind) != chosen {
			continue
		}
		acc += v
		if u < acc || acc >= classSum[chosen] {
			if chosen == classBadNonCompetitive {
				c.badEvents++
			}
			c.sState = lv.ApplyEvent(c.params, c.sState, kind)
			return nil
		}
	}
	return fmt.Errorf("coupling: failed to sample within class %d", chosen)
}

// InvariantError checks the Lemma 10 invariants in the current state and
// returns a descriptive error if either is violated. It is intended for
// property tests and assertions; correct executions started with
// min Ŝ₀ = N̂₀ never trip it.
func (c *Coupled) InvariantError() error {
	if c.sState.Min() > c.nState {
		return fmt.Errorf("coupling: min S = %d exceeds N = %d after %d steps", c.sState.Min(), c.nState, c.steps)
	}
	if c.badEvents > c.births {
		return fmt.Errorf("coupling: J = %d exceeds B = %d after %d steps", c.badEvents, c.births, c.steps)
	}
	return nil
}
