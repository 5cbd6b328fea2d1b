package lv

import (
	"fmt"
	"math"

	"lvmajority/internal/rng"
)

// EventKind identifies one of the eight reaction channels of a two-species
// LV chain.
type EventKind int

// The reaction channels. BirthX/DeathX are the individual reactions of
// species X; InterX is the interspecific competition reaction initiated by
// species X (rate α_X); IntraX is the intraspecific competition within
// species X (rate γ_X).
const (
	Birth0 EventKind = iota
	Birth1
	Death0
	Death1
	Inter0
	Inter1
	Intra0
	Intra1
	numEvents
)

// String returns the channel name.
func (k EventKind) String() string {
	names := [...]string{"birth0", "birth1", "death0", "death1", "inter0", "inter1", "intra0", "intra1"}
	if k < 0 || int(k) >= len(names) {
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
	return names[k]
}

// IsIndividual reports whether the channel is an individual (birth or death)
// reaction — a "non-competitive" event in the paper's terminology.
func (k EventKind) IsIndividual() bool { return k <= Death1 }

// IsCompetitive reports whether the channel is a pairwise competition
// reaction.
func (k EventKind) IsCompetitive() bool { return k >= Inter0 }

// NumEventKinds is the number of reaction channels of a two-species LV
// chain.
const NumEventKinds = int(numEvents)

// PropensitiesFor returns the per-channel propensities of the chain with
// parameters p in state s, in EventKind order, together with the total
// propensity φ(x₀, x₁).
func PropensitiesFor(p Params, s State) ([NumEventKinds]float64, float64) {
	return propensities(p, s)
}

// ApplyEvent returns the successor of state s when channel k fires under
// parameters p. It does not check that the channel is enabled; callers
// should only apply channels with positive propensity.
func ApplyEvent(p Params, s State, k EventKind) State {
	return apply(p, s, k)
}

// Chain is a two-species stochastic LV chain: the discrete-time jump chain
// of the paper, optionally also tracking continuous (Gillespie) time.
// Construct with NewChain. A Chain is not safe for concurrent use.
type Chain struct {
	params Params
	state  State
	src    *rng.Source

	// trackTime enables continuous-time accounting: each step additionally
	// draws an exponential holding time at the total-propensity rate.
	trackTime bool
	time      float64
	steps     int
}

// NewChain creates a chain with the given parameters and initial state.
func NewChain(params Params, initial State, src *rng.Source) (*Chain, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("lv: nil random source")
	}
	return &Chain{params: params, state: initial, src: src}, nil
}

// SetTrackTime enables or disables continuous-time tracking for subsequent
// steps.
func (c *Chain) SetTrackTime(on bool) { c.trackTime = on }

// State returns the current configuration.
func (c *Chain) State() State { return c.state }

// Params returns the chain's rate parameters.
func (c *Chain) Params() Params { return c.params }

// Time returns the accumulated continuous time. It is only meaningful when
// time tracking is enabled.
func (c *Chain) Time() float64 { return c.time }

// Steps returns the number of reactions fired so far.
func (c *Chain) Steps() int { return c.steps }

// Propensities returns the per-channel propensities in the current state, in
// EventKind order, along with their sum φ(x₀, x₁).
func (c *Chain) Propensities() ([numEvents]float64, float64) {
	return propensities(c.params, c.state)
}

func propensities(p Params, s State) ([numEvents]float64, float64) {
	x0, x1 := float64(s.X0), float64(s.X1)
	var props [numEvents]float64
	props[Birth0] = p.Beta * x0
	props[Birth1] = p.Beta * x1
	props[Death0] = p.Delta * x0
	props[Death1] = p.Delta * x1
	props[Inter0] = p.Alpha[0] * x0 * x1
	props[Inter1] = p.Alpha[1] * x0 * x1
	props[Intra0] = p.Gamma[0] * x0 * (x0 - 1) / 2
	props[Intra1] = p.Gamma[1] * x1 * (x1 - 1) / 2
	var total float64
	for _, v := range props {
		total += v
	}
	return props, total
}

// apply fires the given channel on s and returns the successor state.
func apply(p Params, s State, k EventKind) State {
	switch k {
	case Birth0:
		s.X0++
	case Birth1:
		s.X1++
	case Death0:
		s.X0--
	case Death1:
		s.X1--
	case Inter0, Inter1:
		if p.Competition == SelfDestructive {
			s.X0--
			s.X1--
		} else if k == Inter0 {
			// Initiator 0 survives; the victim is species 1.
			s.X1--
		} else {
			s.X0--
		}
	case Intra0:
		if p.Competition == SelfDestructive {
			s.X0 -= 2
		} else {
			s.X0--
		}
	case Intra1:
		if p.Competition == SelfDestructive {
			s.X1 -= 2
		} else {
			s.X1--
		}
	}
	return s
}

// Step fires one reaction of the jump chain and returns its channel. It
// returns ok = false without changing the state when the total propensity is
// zero (the chain is absorbed — both species extinct, or all rates zero).
func (c *Chain) Step() (kind EventKind, ok bool) {
	props, total := propensities(c.params, c.state)
	if total <= 0 {
		return 0, false
	}
	if c.trackTime {
		c.time += c.src.Exp(total)
	}
	u := c.src.Float64() * total
	acc := 0.0
	kind = numEvents - 1
	for k, v := range props {
		if v == 0 {
			continue
		}
		acc += v
		kind = EventKind(k)
		if u < acc {
			break
		}
	}
	c.state = apply(c.params, c.state, kind)
	c.steps++
	return kind, true
}

// Outcome summarizes a run of a two-species chain until consensus (or until
// the step budget ran out). The counters correspond directly to the
// quantities named in the paper's analysis.
type Outcome struct {
	// Consensus reports whether a consensus configuration (some species
	// extinct) was reached within the step budget.
	Consensus bool
	// Winner is the surviving species (0 or 1) at consensus, or −1 if
	// both went extinct in the final event (possible under SD
	// interspecific competition from (1,1)) or consensus was not reached.
	Winner int
	// MajorityWon reports whether the initial majority species survived
	// at consensus. For an initial tie (Δ₀ = 0) it reports whether
	// species 0 survived.
	MajorityWon bool
	// Steps is the number of reactions fired, i.e. the consensus time
	// T(S) when Consensus holds.
	Steps int
	// Individual is I(S), the number of individual (birth/death) events.
	Individual int
	// Competitive is K(S), the number of pairwise competition events.
	Competitive int
	// BadNonCompetitive is J(S): individual events that decreased the
	// absolute gap between the current majority and minority species
	// while the minority count was positive.
	BadNonCompetitive int
	// FInd and FComp decompose the demographic noise F = Δ₀ − Δ_T into
	// contributions from individual and competitive events (F_ind and
	// F_comp of §1.5), measured with respect to the *initial* majority.
	FInd, FComp int
	// GapHitZero reports whether the chain visited a tied state
	// (x₀ = x₁ > 0) strictly before consensus.
	GapHitZero bool
	// MaxPopulation is the largest total population seen.
	MaxPopulation int
	// Final is the final configuration.
	Final State
	// Time is the continuous time at consensus; populated only when time
	// tracking is enabled.
	Time float64
}

// RunOptions configures Run.
type RunOptions struct {
	// MaxSteps caps the number of reactions (0 means DefaultMaxSteps).
	// Chains without competition and with β >= δ need a cap because they
	// may never reach consensus.
	MaxSteps int
	// TrackTime enables continuous-time accounting.
	TrackTime bool
}

// DefaultMaxSteps is the step budget used when RunOptions.MaxSteps is zero.
// The paper's Theorem 13 gives T(S) = O(n) with high probability for the
// competitive chains studied here, so this budget is effectively never
// binding for them.
const DefaultMaxSteps = 500_000_000

// Run simulates the chain from initial until consensus and returns the full
// event accounting. It runs the fused event kernel: a single allocation-free
// loop with the rate coefficients hoisted into locals and the absorption,
// budget, and gap accounting checks folded into the per-event arithmetic.
// For a given random stream it is byte-identical to stepping Step in a loop
// with the historical accounting.
func Run(params Params, initial State, src *rng.Source, opts RunOptions) (Outcome, error) {
	if err := params.Validate(); err != nil {
		return Outcome{}, err
	}
	if err := initial.Validate(); err != nil {
		return Outcome{}, err
	}
	if src == nil {
		return Outcome{}, fmt.Errorf("lv: nil random source")
	}
	// The chain lives on the stack: Run performs no heap allocation.
	chain := Chain{params: params, state: initial, src: src, trackTime: opts.TrackTime}
	return chain.runToConsensus(opts.MaxSteps), nil
}

// runToConsensus is the fused event kernel behind Run.
//
//lint:hotpath
func (c *Chain) runToConsensus(maxSteps int) Outcome {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	out := Outcome{Winner: -1, MaxPopulation: c.state.Total()}
	// The initial majority is species 0 when X0 >= X1, else species 1;
	// the paper's convention is S0 = (a, b) with a > b, but we support
	// either orientation (and ties, resolved in favor of species 0).
	majority := 0
	if c.state.X1 > c.state.X0 {
		majority = 1
	}

	// Precomputed rate coefficients and hot-loop state, hoisted out of
	// the event loop. The propensity expressions and the event switch
	// below deliberately duplicate propensities() and apply() — calling
	// them per event costs ~25% (they are beyond the inliner's budget,
	// and Params travels by value) — so any semantics change there must
	// land here too; TestFusedKernelByteIdenticalToStepLoop compares the
	// two paths event for event across every regime and trips on any
	// divergence.
	var (
		beta, dlt = c.params.Beta, c.params.Delta
		a0, a1    = c.params.Alpha[0], c.params.Alpha[1]
		g0, g1    = c.params.Gamma[0], c.params.Gamma[1]
		sd        = c.params.Competition == SelfDestructive
		trackTime = c.trackTime
		src       = c.src
		x0, x1    = c.state.X0, c.state.X1
		steps     = c.steps
		t         = c.time
		consensus = false
	)

	for {
		if x0 == 0 || x1 == 0 {
			consensus = true
			break
		}
		if steps >= maxSteps {
			break
		}

		// Propensities, in EventKind order with the exact expressions of
		// propensities() so the selection below is bit-identical to Step.
		fx0, fx1 := float64(x0), float64(x1)
		var props [numEvents]float64
		props[Birth0] = beta * fx0
		props[Birth1] = beta * fx1
		props[Death0] = dlt * fx0
		props[Death1] = dlt * fx1
		props[Inter0] = a0 * fx0 * fx1
		props[Inter1] = a1 * fx0 * fx1
		props[Intra0] = g0 * fx0 * (fx0 - 1) / 2
		props[Intra1] = g1 * fx1 * (fx1 - 1) / 2
		var total float64
		for _, v := range props {
			total += v
		}
		if total <= 0 {
			// Zero propensity without consensus: all rates are zero,
			// the chain can never reach consensus.
			break
		}

		if trackTime {
			t += src.Exp(total)
		}
		u := src.Float64() * total
		acc := 0.0
		kind := numEvents - 1
		for k, v := range props {
			if v == 0 {
				continue
			}
			acc += v
			kind = EventKind(k)
			if u < acc {
				break
			}
		}

		px0, px1 := x0, x1
		switch kind {
		case Birth0:
			x0++
		case Birth1:
			x1++
		case Death0:
			x0--
		case Death1:
			x1--
		case Inter0, Inter1:
			if sd {
				x0--
				x1--
			} else if kind == Inter0 {
				// Initiator 0 survives; the victim is species 1.
				x1--
			} else {
				x0--
			}
		case Intra0:
			if sd {
				x0 -= 2
			} else {
				x0--
			}
		case Intra1:
			if sd {
				x1 -= 2
			} else {
				x1--
			}
		}
		steps++

		// Fused gap accounting, all in integer arithmetic.
		var fStep int
		if majority == 0 {
			fStep = (px0 - px1) - (x0 - x1)
		} else {
			fStep = (px1 - px0) - (x1 - x0)
		}
		if kind <= Death1 {
			out.Individual++
			out.FInd += fStep
			// Bad non-competitive event: the absolute gap between
			// current majority and minority decreased while the
			// minority had positive count.
			if min(px0, px1) > 0 && absInt(x0-x1) == absInt(px0-px1)-1 {
				out.BadNonCompetitive++
			}
		} else {
			out.Competitive++
			out.FComp += fStep
		}
		if x0+x1 > out.MaxPopulation {
			out.MaxPopulation = x0 + x1
		}
		if x0 == x1 && x0 != 0 {
			out.GapHitZero = true
		}
	}

	c.state = State{X0: x0, X1: x1}
	c.steps = steps
	c.time = t
	out.Steps = steps
	out.Final = c.state
	out.Time = t
	if consensus {
		out.Consensus = true
		out.Winner = out.Final.Winner()
		out.MajorityWon = out.Winner == majority
	}
	return out
}

// absInt returns |v|.
func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ConsensusProbabilityExact returns the exact majority-consensus probability
// ρ(S) = a/(a+b) that Theorems 20 and 23 establish for the solvable regimes
// (SD with α = γ; NSD with γ = 2α; and the no-competition case), where a is
// the initial majority count and b the minority count.
func ConsensusProbabilityExact(initial State) float64 {
	a := math.Max(float64(initial.X0), float64(initial.X1))
	total := float64(initial.Total())
	if total == 0 {
		return 0
	}
	return a / total
}
