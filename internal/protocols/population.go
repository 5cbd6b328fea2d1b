// Package protocols implements the baseline majority-consensus protocols the
// paper compares against or cites as prior work (§2.2):
//
//   - a population-protocol engine (static population, uniformly random
//     ordered pairwise interactions) with the classic 3-state approximate
//     majority protocol of Angluin, Aspnes, and Eisenstat and the 4-state
//     exact majority protocol of Draief–Vojnović / Mertzios et al.;
//   - the chemical-reaction-network protocols of Condon et al. ("single-B",
//     "double-B", "heavy-B", and the two-species trimolecular rule), built
//     on the internal/crn engine; and
//   - the resource-consumer model of Andaur et al. (bounded, non-mass-action
//     growth, no individual deaths, non-self-destructive interference).
//
// The Cho et al. special case (δ = 0, self-destructive) is an LV chain and
// runs as a consensus.LVProtocol.
//
// Every protocol satisfies the consensus.Protocol interface, so the same
// estimator and threshold search drive all of them.
package protocols

import (
	"fmt"
	"sync"

	"lvmajority/internal/rng"
)

// PopulationKernel selects the event loop a PopulationProtocol trial runs
// on. Both kernels simulate exactly the same process — uniformly random
// ordered pairs, one interaction per clock tick — but consume the random
// stream differently, so individual trials differ while every distribution
// (winner, interaction counts, budget behaviour) is unchanged.
type PopulationKernel int

const (
	// KernelBatch (the default) skips runs of null interactions in one
	// shot: it draws the number of consecutive pair selections that
	// change no agent from the exact geometric law, advances the
	// interaction counter by that many ticks, then samples the next
	// effective pair from the conditional distribution. Near convergence
	// almost every interaction is null, so this is the fast kernel for
	// the small state spaces used here. Its per-effective-interaction
	// cost is O(NumStates²) (one pass over the non-null pair weights), so
	// a protocol with many states and few null interactions is better
	// served by KernelPerEvent, whose per-interaction cost is
	// O(NumStates).
	KernelBatch PopulationKernel = iota
	// KernelPerEvent simulates every interaction individually, drawing
	// the initiator and responder per tick. It is byte-for-byte identical
	// to the historical event loop for a given random stream.
	KernelPerEvent
	// KernelLockstep is the structure-of-arrays block engine: it advances
	// up to MaxLockstepLanes replicates of the same protocol in lockstep
	// against one shared compiled rule table, with per-lane counts in
	// flat planes and per-lane null-skip draws (see lockstep.go). Each
	// lane consumes its own index-keyed stream in exactly the order the
	// batch kernel would, so per-trial outcomes are byte-identical to
	// KernelBatch and independent of how trials are packed into lanes. A
	// plain Trial call therefore runs the scalar batch loop; the block
	// path is reached through NewTrialBlock (consensus.BlockTrialer).
	KernelLockstep
)

// String returns the kernel name.
func (k PopulationKernel) String() string {
	switch k {
	case KernelBatch:
		return "batch"
	case KernelPerEvent:
		return "per-event"
	case KernelLockstep:
		return "lockstep"
	default:
		return fmt.Sprintf("PopulationKernel(%d)", int(k))
	}
}

// ParseKernel maps a kernel name — "", "batch", "per-event", or
// "lockstep" — to its PopulationKernel; the empty string selects the
// default batch kernel. It is the inverse of String and the one parser
// shared by the spec layer and the experiment harness.
func ParseKernel(name string) (PopulationKernel, error) {
	switch name {
	case "", "batch":
		return KernelBatch, nil
	case "per-event":
		return KernelPerEvent, nil
	case "lockstep":
		return KernelLockstep, nil
	default:
		return 0, fmt.Errorf("protocols: unknown kernel %q (want batch, per-event, or lockstep)", name)
	}
}

// PopulationProtocol is a population protocol over a small state space with
// uniformly random ordered pairwise interactions: at each step an ordered
// pair of distinct agents (initiator, responder) is chosen uniformly at
// random and both agents update according to Rule.
//
// The configuration fields must not be mutated after the first Trial call:
// the protocol compiles Rule into a flat transition table once, on first
// use.
type PopulationProtocol struct {
	// ProtocolName labels the protocol.
	ProtocolName string
	// NumStates is the number of agent states.
	NumStates int
	// Rule maps (initiator, responder) states to their successor states.
	Rule func(initiator, responder int) (int, int)
	// MajorityState and MinorityState are the initial states of
	// majority- and minority-opinion agents.
	MajorityState, MinorityState int
	// Done inspects the per-state counts and reports whether the
	// execution has stabilized, and if so which opinion won (0 for the
	// initial majority's opinion, 1 for the minority's, −1 for neither).
	Done func(counts []int) (done bool, winner int)
	// DoneWhenZero, when non-empty, restates Done in compiled form: the
	// execution is decided the first time every state in some rule's
	// Zero set has count zero, and the first matching rule (in order)
	// names the winner. The lockstep kernel checks these rules with a
	// handful of loads per lane instead of gathering counts and making
	// an indirect Done call — which would otherwise be a third of its
	// per-round budget. The scalar kernels deliberately keep calling
	// Done, so the kernel-equivalence suite cross-checks the two forms
	// on every reachable trajectory; TestDoneWhenZeroMatchesDone checks
	// them against each other directly.
	DoneWhenZero []DoneRule
	// MaxInteractionsFor bounds the trial length as a function of n;
	// nil uses 400·n·(log₂ n + 1), generous for protocols converging in
	// O(n log n) interactions.
	MaxInteractionsFor func(n int) int
	// Kernel selects the trial event loop (default KernelBatch).
	Kernel PopulationKernel
	// Lanes is the lane width R of the lockstep kernel: how many
	// replicates one block engine advances per instruction stream. Zero
	// selects DefaultLockstepLanes; valid values are 1..MaxLockstepLanes.
	// Because every lane consumes its own index-keyed stream, the lane
	// width never changes any trial outcome — it is a throughput knob
	// only, which is why it does not appear in CacheKey.
	Lanes int

	// compileOnce guards the one-time validate-and-compile step; all
	// per-pair work (validation, Rule evaluation, range checks, null
	// classification) happens exactly once per protocol value.
	compileOnce sync.Once
	compiled    *popTable
	compileErr  error
	// compileCalls counts executions of the compile step, for tests.
	compileCalls int
}

// DoneRule is one clause of a compiled decision predicate: the execution
// is decided with winner Winner once every state listed in Zero has count
// zero. See PopulationProtocol.DoneWhenZero.
type DoneRule struct {
	// Zero lists the states whose counts must all be zero.
	Zero []int
	// Winner is the decided opinion when the clause fires: 0 for the
	// initial majority, 1 for the minority, −1 for a stuck undecided
	// execution.
	Winner int
}

// Name implements consensus.Protocol.
func (p *PopulationProtocol) Name() string { return p.ProtocolName }

// CacheKey implements sweep.CacheKeyer: unlike Name it includes the state
// count and the kernel, so switching kernels (which legitimately changes
// individual trial outcomes, though not their law) cannot replay stale
// cached probes.
func (p *PopulationProtocol) CacheKey() string {
	return fmt.Sprintf("pop:%s|states=%d|kernel=%s", p.ProtocolName, p.NumStates, p.Kernel)
}

// validate checks the protocol wiring.
func (p *PopulationProtocol) validate() error {
	if p.NumStates < 2 {
		return fmt.Errorf("protocols: %q needs at least 2 states", p.ProtocolName)
	}
	if p.Rule == nil || p.Done == nil {
		return fmt.Errorf("protocols: %q missing rule or done predicate", p.ProtocolName)
	}
	if p.MajorityState < 0 || p.MajorityState >= p.NumStates ||
		p.MinorityState < 0 || p.MinorityState >= p.NumStates {
		return fmt.Errorf("protocols: %q has out-of-range initial states", p.ProtocolName)
	}
	for _, rule := range p.DoneWhenZero {
		if len(rule.Zero) == 0 {
			return fmt.Errorf("protocols: %q has a DoneWhenZero rule with an empty zero set", p.ProtocolName)
		}
		for _, s := range rule.Zero {
			if s < 0 || s >= p.NumStates {
				return fmt.Errorf("protocols: %q DoneWhenZero references out-of-range state %d", p.ProtocolName, s)
			}
		}
	}
	return nil
}

// popTable is a protocol compiled to a flat NumStates² transition table:
// successor states and null classification per ordered pair, with the
// per-pair Rule range checks already done. Pair (s, t) lives at index
// s·NumStates + t.
type popTable struct {
	states int
	// ni and nr are the successor states of initiator and responder.
	ni, nr []int
	// null marks pairs that change neither agent.
	null []bool
	// eff lists the non-null pair indices, the only ones the batch kernel
	// ever weighs or samples; effS and effT are their unpacked
	// (initiator, responder) states, precomputed to keep division out of
	// the hot loop.
	eff        []int32
	effS, effT []int32
	// effNi and effNr are ni and nr re-indexed by effective-pair position,
	// so the lockstep fire path applies a sampled transition without the
	// second indirection through eff.
	effNi, effNr []int32
	// doneZero is the compiled DoneWhenZero predicate in rule order, each
	// rule its zero set plus winner; empty when the protocol declares
	// none, in which case kernels must call the Done closure.
	doneZero []compiledDoneRule
}

// compiledDoneRule is DoneRule with the state set in the int32 form the
// lockstep decide loop indexes count planes with.
type compiledDoneRule struct {
	zero   []int32
	winner int32
}

// compile validates the protocol and builds the transition table, once.
// Subsequent calls (every Trial after the first) reuse the result without
// re-validating or re-evaluating Rule.
func (p *PopulationProtocol) compile() (*popTable, error) {
	p.compileOnce.Do(func() {
		p.compileCalls++
		if err := p.validate(); err != nil {
			p.compileErr = err
			return
		}
		s := p.NumStates
		tab := &popTable{
			states: s,
			ni:     make([]int, s*s),
			nr:     make([]int, s*s),
			null:   make([]bool, s*s),
		}
		for a := 0; a < s; a++ {
			for b := 0; b < s; b++ {
				na, nb := p.Rule(a, b)
				if na < 0 || na >= s || nb < 0 || nb >= s {
					p.compileErr = fmt.Errorf("protocols: %q rule produced out-of-range states (%d, %d)", p.ProtocolName, na, nb)
					return
				}
				k := a*s + b
				tab.ni[k], tab.nr[k] = na, nb
				tab.null[k] = na == a && nb == b
				if !tab.null[k] {
					tab.eff = append(tab.eff, int32(k))
					tab.effS = append(tab.effS, int32(a))
					tab.effT = append(tab.effT, int32(b))
					tab.effNi = append(tab.effNi, int32(na))
					tab.effNr = append(tab.effNr, int32(nb))
				}
			}
		}
		for _, rule := range p.DoneWhenZero {
			zero := make([]int32, len(rule.Zero))
			for i, st := range rule.Zero {
				zero[i] = int32(st)
			}
			tab.doneZero = append(tab.doneZero, compiledDoneRule{zero: zero, winner: int32(rule.Winner)})
		}
		p.compiled = tab
	})
	return p.compiled, p.compileErr
}

// maxInteractions resolves the interaction budget for population size n.
func (p *PopulationProtocol) maxInteractions(n int) int {
	if p.MaxInteractionsFor != nil {
		if m := p.MaxInteractionsFor(n); m > 0 {
			return m
		}
	}
	logN := 1
	for v := n; v > 1; v >>= 1 {
		logN++
	}
	return 400 * n * logN
}

// Trial implements consensus.Protocol: it runs one execution with a
// majority of a = (n+delta)/2 agents and a minority of b = (n−delta)/2
// agents and reports whether the initial majority's opinion won.
func (p *PopulationProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	won, _, err := p.run(n, delta, src)
	return won, err
}

// run is Trial plus the number of interactions consumed, for benchmarks
// and the kernel-equivalence tests.
func (p *PopulationProtocol) run(n, delta int, src *rng.Source) (won bool, interactions int, err error) {
	tab, err := p.compile()
	if err != nil {
		return false, 0, err
	}
	if n < 2 {
		return false, 0, fmt.Errorf("protocols: population %d too small", n)
	}
	if delta < 0 || (n-delta)%2 != 0 || delta > n-2 {
		return false, 0, fmt.Errorf("protocols: infeasible gap %d for n=%d", delta, n)
	}
	b := (n - delta) / 2
	a := n - b

	counts := make([]int, p.NumStates)
	counts[p.MajorityState] += a
	counts[p.MinorityState] += b

	if p.Kernel == KernelPerEvent {
		return p.runPerEvent(tab, counts, n, src)
	}
	// KernelLockstep deliberately shares this path: one lockstep lane
	// consumes its stream exactly as runBatch does, so a single Trial is
	// the scalar replay of what the block engine computes for that lane.
	return p.runBatch(tab, counts, n, src)
}

// runPerEvent simulates every interaction individually. For a given random
// stream it is byte-identical to the historical event loop: one Intn(n)
// draw for the initiator and one Intn(n−1) draw for the responder per
// interaction, null or not. Done is only re-evaluated after an interaction
// actually changed a count — it is a pure function of the counts, so
// skipping it on null interactions cannot change the stopping time.
//
//lint:hotpath
func (p *PopulationProtocol) runPerEvent(tab *popTable, counts []int, n int, src *rng.Source) (bool, int, error) {
	maxInteractions := p.maxInteractions(n)
	changed := true
	for step := 0; step < maxInteractions; step++ {
		if changed {
			if done, winner := p.Done(counts); done {
				return winner == 0, step, nil
			}
			changed = false
		}
		initiator := sampleState(counts, n, src)
		// The responder is a distinct agent: discount the initiator.
		counts[initiator]--
		responder := sampleState(counts, n-1, src)
		counts[initiator]++

		k := initiator*tab.states + responder
		if tab.null[k] {
			continue
		}
		counts[initiator]--
		counts[responder]--
		counts[tab.ni[k]]++
		counts[tab.nr[k]]++
		changed = true
	}
	// Did not stabilize within the budget: count as failure.
	return false, maxInteractions, nil
}

// runBatch simulates the same process, skipping runs of null interactions
// without touching the counts.
//
// In a state with counts c over a population of n agents, an ordered pair
// (s, t) of distinct agents is selected with probability
// c_s·(c_t − [s=t]) / (n·(n−1)); the pair is null when Rule changes
// neither agent. With W the total weight of non-null pairs, each
// interaction is effective with probability W / n(n−1), independently,
// until the counts change — so a maximal run of nulls is skipped either
// tick by tick with one uniform each (moderate null fractions) or in a
// single Geometric draw (null-dominated states, where the geometric's
// logarithm amortizes over many ticks). Both charge the skipped ticks to
// the interaction counter, so the MaxInteractionsFor budget binds exactly
// as in the per-event kernel. The effective pair itself follows the
// conditional distribution weight/W, sampled by integer weights with no
// floating-point error.
func (p *PopulationProtocol) runBatch(tab *popTable, counts []int, n int, src *rng.Source) (bool, int, error) {
	maxInteractions := p.maxInteractions(n)
	total := int64(n) * int64(n-1)
	ftotal := float64(total)
	// Per-effective-pair weights, in tab.eff order.
	weights := make([]int64, len(tab.eff))
	step := 0
	//lint:hotpath
	for {
		// Budget before Done, matching the per-event loop: a trial whose
		// final permitted interaction reaches consensus still scores as
		// undecided, because the loop never observes the final state.
		if step >= maxInteractions {
			return false, step, nil
		}
		if done, winner := p.Done(counts); done {
			return winner == 0, step, nil
		}

		// One pass over the non-null pairs: weight of each and their sum.
		var w int64
		for i := range tab.eff {
			s, t := tab.effS[i], tab.effT[i]
			cs := int64(counts[s])
			ct := int64(counts[t])
			if t == s {
				ct--
				if ct < 0 {
					ct = 0
				}
			}
			wi := cs * ct
			weights[i] = wi
			w += wi
		}
		if w == 0 {
			// Every selectable pair is null: no count can ever change
			// again and Done can never flip, so the per-event loop
			// would spin until the budget ran out.
			return false, maxInteractions, nil
		}

		if w < total {
			fw := float64(w)
			if 8*w >= total {
				// Moderate null fraction (expected run below ~8 ticks):
				// skip nulls tick by tick, one uniform each; cheaper
				// than the geometric's logarithms. Each tick is
				// effective with probability w/total; the loop ends on
				// the first effective one.
				for src.Float64()*ftotal >= fw {
					step++
					if step >= maxInteractions {
						return false, step, nil
					}
				}
			} else {
				// Null-dominated state: one geometric draw replaces
				// the whole run of null ticks.
				remaining := maxInteractions - step
				nulls := src.GeometricCapped(fw/ftotal, remaining)
				if nulls >= remaining {
					return false, maxInteractions, nil
				}
				step += nulls
			}
		}
		// The effective interaction itself consumes one tick.
		step++

		// Sample the effective pair proportionally to its integer weight.
		v := int64(src.Uint64N(uint64(w)))
		pair := -1
		for i, wi := range weights {
			v -= wi
			if v < 0 {
				pair = i
				break
			}
		}
		// Unreachable: the weights sum to exactly w. Guard anyway.
		if pair < 0 {
			//lint:ignore hotpath unreachable guard — this return never executes, so its allocation cannot cost an event
			return false, step, fmt.Errorf("protocols: %q effective-pair sampling overran its weight", p.ProtocolName)
		}

		k := tab.eff[pair]
		counts[tab.effS[pair]]--
		counts[tab.effT[pair]]--
		counts[tab.ni[k]]++
		counts[tab.nr[k]]++
	}
}

// sampleState picks a state index with probability counts[s]/total.
func sampleState(counts []int, total int, src *rng.Source) int {
	u := src.Intn(total)
	acc := 0
	for s, c := range counts {
		acc += c
		if u < acc {
			return s
		}
	}
	// Unreachable when total == sum(counts); guard for safety.
	return len(counts) - 1
}

// Three-state approximate majority protocol (Angluin, Aspnes, Eisenstat
// 2008). States: amX and amY are the two opinions, amBlank is undecided.
// Rules (one-way: only the responder changes):
//
//	(X, Y) → (X, blank)   (Y, X) → (Y, blank)
//	(X, blank) → (X, X)   (Y, blank) → (Y, Y)
//
// It solves approximate majority in O(n log n) interactions w.h.p. when the
// initial gap is Ω(√n · log n).
const (
	amX = iota
	amY
	amBlank
)

// NewThreeStateAM returns the 3-state approximate majority protocol, with
// the majority holding opinion X.
func NewThreeStateAM() *PopulationProtocol {
	return &PopulationProtocol{
		ProtocolName: "3-state approximate majority (Angluin et al.)",
		NumStates:    3,
		Rule: func(initiator, responder int) (int, int) {
			switch {
			case initiator == amX && responder == amY:
				return amX, amBlank
			case initiator == amY && responder == amX:
				return amY, amBlank
			case initiator == amX && responder == amBlank:
				return amX, amX
			case initiator == amY && responder == amBlank:
				return amY, amY
			default:
				return initiator, responder
			}
		},
		MajorityState: amX,
		MinorityState: amY,
		Done: func(counts []int) (bool, int) {
			switch {
			case counts[amY] == 0 && counts[amBlank] == 0:
				return true, 0
			case counts[amX] == 0 && counts[amBlank] == 0:
				return true, 1
			default:
				return false, -1
			}
		},
		DoneWhenZero: []DoneRule{
			{Zero: []int{amY, amBlank}, Winner: 0},
			{Zero: []int{amX, amBlank}, Winner: 1},
		},
	}
}

// Four-state exact majority protocol (Draief–Vojnović 2012; Mertzios et al.
// 2014), presented as binary interval consensus. States: strong opinions
// exS0/exS1 and weak opinions exW0/exW1. Rules (both agents may change):
//
//	(S0, S1) → (W0, W1)  — strong opinions annihilate into weak ones
//	(S0, W1) → (S0, W0)  — strong converts opposing weak
//	(S1, W0) → (S1, W1)
//
// plus the mirrored initiator/responder cases. The protocol reaches the
// correct majority opinion with probability 1 for any Δ > 0, in O(n²)
// expected interactions in the worst case.
const (
	exS0 = iota
	exS1
	exW0
	exW1
)

// NewFourStateExact returns the 4-state exact majority protocol, with the
// majority holding opinion 0.
func NewFourStateExact() *PopulationProtocol {
	rule := func(a, b int) (int, int) {
		switch {
		case a == exS0 && b == exS1:
			return exW0, exW1
		case a == exS1 && b == exS0:
			return exW1, exW0
		case a == exS0 && b == exW1:
			return exS0, exW0
		case a == exW1 && b == exS0:
			return exW0, exS0
		case a == exS1 && b == exW0:
			return exS1, exW1
		case a == exW0 && b == exS1:
			return exW1, exS1
		default:
			return a, b
		}
	}
	return &PopulationProtocol{
		ProtocolName:  "4-state exact majority (Draief-Vojnović)",
		NumStates:     4,
		Rule:          rule,
		MajorityState: exS0,
		MinorityState: exS1,
		Done: func(counts []int) (bool, int) {
			opinion0 := counts[exS0] + counts[exW0]
			opinion1 := counts[exS1] + counts[exW1]
			switch {
			case opinion1 == 0:
				return true, 0
			case opinion0 == 0:
				return true, 1
			case counts[exS0]+counts[exS1] == 0:
				// All strong tokens annihilated (possible only
				// from a tie): weak opinions can never change
				// again, so the execution is stuck undecided.
				return true, -1
			default:
				return false, -1
			}
		},
		DoneWhenZero: []DoneRule{
			{Zero: []int{exS1, exW1}, Winner: 0},
			{Zero: []int{exS0, exW0}, Winner: 1},
			{Zero: []int{exS0, exS1}, Winner: -1},
		},
		// Exact majority needs Θ(n²) interactions for small gaps.
		MaxInteractionsFor: func(n int) int { return 200 * n * n },
	}
}
