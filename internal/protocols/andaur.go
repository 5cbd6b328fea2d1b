package protocols

import (
	"fmt"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// AndaurProtocol is our reconstruction of the resource-consumer model of
// Andaur et al. [6] as this paper describes it: non-self-destructive
// interference competition, no individual death reactions (δ = 0), and
// bounded, non-mass-action growth. Growth is modelled with the birth
// propensity min(β·xᵢ, β·ResourceCap) — per-capita exponential growth that
// saturates once a species reaches the resource capacity, which is the
// bounded-growth property this paper's §1.4 relies on (their dominating
// chain stays "nice"). The original model couples growth to an explicit
// resource species; the saturated-rate form exercises the same code path
// (sub-mass-action growth + NSD competition) without the unavailable
// original's exact constants — see the reconstruction caveat in the
// generated DESIGN.md §2.
type AndaurProtocol struct {
	// Beta is the per-capita growth rate before saturation.
	Beta float64
	// Alpha is the per-pair interference competition rate.
	Alpha float64
	// ResourceCap is the population count at which a species' total
	// growth propensity saturates.
	ResourceCap int
	// MaxSteps bounds each trial; zero defaults to lv.DefaultMaxSteps.
	MaxSteps int
}

// Name implements consensus.Protocol.
func (a AndaurProtocol) Name() string {
	return fmt.Sprintf("Andaur resource-consumer (beta=%g alpha=%g cap=%d)", a.Beta, a.Alpha, a.ResourceCap)
}

// Validate checks the parameters.
func (a AndaurProtocol) Validate() error {
	if a.Beta < 0 || a.Alpha <= 0 {
		return fmt.Errorf("protocols: Andaur model needs beta >= 0 and alpha > 0, got beta=%g alpha=%g", a.Beta, a.Alpha)
	}
	if a.ResourceCap <= 0 {
		return fmt.Errorf("protocols: Andaur model needs a positive resource cap, got %d", a.ResourceCap)
	}
	return nil
}

// Trial implements consensus.Protocol by stepping the bounded-growth NSD
// chain directly (it is not an lv.Params chain because of the saturated
// birth propensity).
func (a AndaurProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	if err := a.Validate(); err != nil {
		return false, err
	}
	if n < 2 || delta < 0 || (n-delta)%2 != 0 || delta > n-2 {
		return false, fmt.Errorf("protocols: infeasible (n=%d, delta=%d)", n, delta)
	}
	minority := (n - delta) / 2
	x0, x1 := n-minority, minority

	maxSteps := a.MaxSteps
	if maxSteps <= 0 {
		maxSteps = lv.DefaultMaxSteps
	}
	cap64 := float64(a.ResourceCap)
	for step := 0; step < maxSteps; step++ {
		if x0 == 0 || x1 == 0 {
			return x0 > 0, nil
		}
		// Saturated growth propensities.
		g0 := a.Beta * min(float64(x0), cap64)
		g1 := a.Beta * min(float64(x1), cap64)
		// NSD interference: victim dies, killer survives. With
		// symmetric rates the initiator identity only matters through
		// which species loses an individual.
		k0 := a.Alpha * float64(x0) * float64(x1) // species 0 kills a 1
		k1 := a.Alpha * float64(x0) * float64(x1) // species 1 kills a 0
		total := g0 + g1 + k0 + k1
		if total <= 0 {
			return false, nil
		}
		u := src.Float64() * total
		switch {
		case u < g0:
			x0++
		case u < g0+g1:
			x1++
		case u < g0+g1+k0:
			x1--
		default:
			x0--
		}
	}
	return false, nil
}
