package exact

import (
	"fmt"

	"lvmajority/internal/crn"
)

// SolveNetwork computes the ρ grid (and optionally the expected
// consensus-time grid) for an arbitrary *two-species* chemical reaction
// network: ρ(a, b) is the probability that species 0 is the sole survivor
// of the jump chain started at counts (a, b). It generalizes Solve from
// the paper's Lotka–Volterra parameterization to any two-species model
// built on internal/crn — in particular the non-neutral (per-species
// birth/death) chains of internal/protocols, which gives the Monte-Carlo
// pipeline for those models a sampling-free oracle.
//
// Truncation follows Solve: moves that would push either count above
// opts.Max are disabled and the jump chain renormalizes over the remaining
// channels. The double-extinction state (0, 0) takes opts.TieValue.
// Reactions must change the state (a two-species network with a
// no-op channel would make the jump chain ill-defined on the grid); such
// networks are rejected.
func SolveNetwork(net *crn.Network, opts Options) (*Solution, error) {
	return solveNetwork(net, opts, false)
}

// SolveNetworkWithSteps additionally solves the expected consensus-time
// grid.
func SolveNetworkWithSteps(net *crn.Network, opts Options) (*Solution, error) {
	return solveNetwork(net, opts, true)
}

func solveNetwork(net *crn.Network, opts Options, withSteps bool) (*Solution, error) {
	if net == nil {
		return nil, fmt.Errorf("exact: nil network")
	}
	if net.NumSpecies() != 2 {
		return nil, fmt.Errorf("exact: grid solver needs exactly 2 species, network has %d", net.NumSpecies())
	}
	for r := 0; r < net.NumReactions(); r++ {
		if net.Delta(r, 0) == 0 && net.Delta(r, 1) == 0 && net.Reaction(r).Rate > 0 {
			return nil, fmt.Errorf("exact: reaction %q does not change the state", net.Reaction(r).Name)
		}
	}
	return solve(opts, withSteps, func(dst []transition, a, b int) []transition {
		return networkTransitionsInto(dst, net, a, b, opts.Max)
	})
}

// networkTransitionsInto fills dst with the truncated jump-chain
// transitions of the network from (a, b).
func networkTransitionsInto(dst []transition, net *crn.Network, a, b, max int) []transition {
	dst = dst[:0]
	state := []int{a, b}
	var total float64
	for r := 0; r < net.NumReactions(); r++ {
		v := net.Propensity(r, state)
		if v <= 0 {
			continue
		}
		a2 := a + net.Delta(r, 0)
		b2 := b + net.Delta(r, 1)
		if a2 < 0 || b2 < 0 || a2 > max || b2 > max {
			continue // impossible or truncated move
		}
		dst = append(dst, transition{prob: v, a2: a2, b2: b2})
		total += v
	}
	if total == 0 {
		return dst[:0]
	}
	for i := range dst {
		dst[i].prob /= total
	}
	return dst
}
