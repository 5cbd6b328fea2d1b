// Package moran implements the two-type Moran process, the classical
// fixed-size birth–death model of population genetics, together with its
// exact fixation-probability formula.
//
// The Moran process is the natural static-population counterpart of the
// paper's Lotka–Volterra chains: in every step one individual reproduces
// (chosen proportionally to fitness) and one individual dies (chosen
// uniformly), so the population size n never changes. Its embedded jump
// chain is a gambler's-ruin random walk with constant up-probability
// r/(1+r), which yields a closed form for the fixation probability. The
// neutral case (r = 1) fixes the initial majority with probability exactly
// a/n — the same martingale behaviour the paper proves for LV systems with
// no competition (Table 1 row 5) and with balanced intra/interspecific
// competition (Theorems 20 and 23) — making the package both a baseline
// protocol and an analytic test oracle.
package moran

import (
	"fmt"
	"math"

	"lvmajority/internal/rng"
)

// Params configures a two-type Moran process.
type Params struct {
	// Fitness is the relative reproductive fitness r of type 0 against
	// type 1 (whose fitness is 1). r = 1 is the neutral process.
	Fitness float64
}

// Validate reports whether the parameters are well formed.
func (p Params) Validate() error {
	if !(p.Fitness > 0) || math.IsInf(p.Fitness, 0) {
		return fmt.Errorf("moran: fitness must be positive and finite, got %v", p.Fitness)
	}
	return nil
}

// Outcome describes one Moran execution run to absorption.
type Outcome struct {
	// Fixed0 reports whether type 0 took over the whole population.
	Fixed0 bool
	// JumpSteps is the number of state-changing steps (one individual
	// replaced by one of the other type).
	JumpSteps int
	// MoranSteps is the total number of Moran steps including holding
	// steps, in which the sampled offspring replaces an individual of
	// its own type and the state does not change.
	MoranSteps int64
}

// maxJumpSteps caps executions as a safety net; the expected number of
// jumps is at most a(n−a) ≤ n²/4, so the cap is never reached in practice.
const maxJumpSteps int64 = 1 << 40

// Chain is a running Moran process, advanced one state-changing (jump)
// step at a time on the embedded jump chain: from any mixed state the next
// state-changing step increments the type-0 count with probability r/(1+r)
// and decrements it otherwise, independent of the state. Holding steps are
// accounted for in aggregate by sampling their geometric counts, so
// Outcome.MoranSteps has the exact distribution of the full process. A
// Chain is not safe for concurrent use.
type Chain struct {
	params Params
	n      int

	i          int
	jumpSteps  int
	moranSteps int64
	src        *rng.Source
}

// NewChain creates a Moran chain with population size n and a initial
// individuals of type 0.
func NewChain(p Params, n, a int, src *rng.Source) (*Chain, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 1 || a < 0 || a > n {
		return nil, fmt.Errorf("moran: invalid initial state a=%d, n=%d", a, n)
	}
	if src == nil {
		return nil, fmt.Errorf("moran: nil random source")
	}
	return &Chain{params: p, n: n, i: a, src: src}, nil
}

// Absorbed reports whether one type has fixed, and if so whether it was
// type 0.
func (c *Chain) Absorbed() (done, fixed0 bool) {
	return c.i == 0 || c.i == c.n, c.i == c.n
}

// Step advances the chain by one jump step. It reports whether the type-0
// count went up, and ok = false without changing the state when the chain
// is already absorbed or the jump-step safety cap is exceeded.
func (c *Chain) Step() (up, ok bool) {
	if c.i <= 0 || c.i >= c.n || int64(c.jumpSteps) >= maxJumpSteps {
		return false, false
	}
	r := c.params.Fitness
	// Probability that a single Moran step changes the state.
	fi := float64(c.i)
	fn := float64(c.n)
	move := (r + 1) * fi * (fn - fi) / ((r*fi + fn - fi) * fn)
	// Geometric(move) counts the holding steps before the state change;
	// +1 for the changing step itself.
	c.moranSteps += int64(c.src.Geometric(move)) + 1
	c.jumpSteps++
	if c.src.Bernoulli(r / (1 + r)) {
		c.i++
		return true, true
	}
	c.i--
	return false, true
}

// Run simulates the Moran process with population size n starting from a
// individuals of type 0 until one type is fixed.
func Run(p Params, n, a int, src *rng.Source) (Outcome, error) {
	c, err := NewChain(p, n, a, src)
	if err != nil {
		return Outcome{}, err
	}
	for {
		done, fixed0 := c.Absorbed()
		if done {
			return Outcome{Fixed0: fixed0, JumpSteps: c.jumpSteps, MoranSteps: c.moranSteps}, nil
		}
		if _, ok := c.Step(); !ok {
			return Outcome{}, fmt.Errorf("moran: exceeded %d jump steps at n=%d", maxJumpSteps, n)
		}
	}
}

// FixationProbability returns the exact probability that type 0, with
// relative fitness r and initial count a in a population of size n, takes
// over the population: (1 − r^−a) / (1 − r^−n), with the neutral limit a/n.
func FixationProbability(r float64, n, a int) float64 {
	switch {
	case n < 1 || a < 0 || a > n:
		return math.NaN()
	case a == 0:
		return 0
	case a == n:
		return 1
	}
	if r == 1 {
		return float64(a) / float64(n)
	}
	// Compute with expm1/log for numerical stability at r near 1 and
	// for large exponents.
	lr := math.Log(r)
	num := -math.Expm1(-float64(a) * lr)
	den := -math.Expm1(-float64(n) * lr)
	if den == 0 {
		return float64(a) / float64(n)
	}
	return num / den
}

// Protocol adapts the Moran process to the consensus.Protocol interface:
// a trial starts with a = (n+Δ)/2 individuals of type 0 (the initial
// majority) and succeeds iff type 0 fixes.
type Protocol struct {
	// Fitness is the relative fitness of the initial majority; 1 is
	// neutral.
	Fitness float64
}

// Name implements consensus.Protocol.
func (p *Protocol) Name() string {
	return fmt.Sprintf("Moran process (r=%g)", p.Fitness)
}

// Trial implements consensus.Protocol.
func (p *Protocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("moran: population %d too small", n)
	}
	if delta < 0 || delta > n-2 || (n-delta)%2 != 0 {
		return false, fmt.Errorf("moran: infeasible gap %d for n=%d", delta, n)
	}
	a := n - (n-delta)/2
	out, err := Run(Params{Fitness: p.Fitness}, n, a, src)
	if err != nil {
		return false, err
	}
	return out.Fixed0, nil
}
