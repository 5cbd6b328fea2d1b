// Package exact computes exact (up to truncation and iteration tolerance)
// absorption quantities of two-species jump chains by solving the
// first-step recurrences on a truncated state grid:
//
//   - Rho(a, b): the probability that species 0 is the sole survivor,
//     the quantity ρ(S) whose recurrence Eq. (8) of the paper analyzes
//     (Lemmas 21–22, Theorems 20 and 23); and
//   - Steps(a, b): the expected consensus time E[T(S)].
//
// One Gauss–Seidel solver serves every chain: the paper's Lotka–Volterra
// chains given as lv.Params (Solve, SolveWithSteps) and any two-species
// chemical reaction network (SolveNetwork, SolveNetworkWithSteps). Each
// front end only supplies the transitions out of a grid state.
//
// The grid truncates both counts at a ceiling M, disabling birth moves out
// of the boundary (their probability mass becomes holding, which the jump
// chain renormalizes away). For chains whose population drifts down —
// everything with competition, and β ≤ δ without — the truncation error
// vanishes as M grows; ErrorBound gives a crude a-posteriori check.
//
// The package is the deterministic oracle used to validate the Monte-Carlo
// pipeline and the paper's exact-probability theorems without sampling
// error.
package exact

import (
	"fmt"
	"math"

	"lvmajority/internal/lv"
)

// Options configures a solve.
type Options struct {
	// Max is the grid ceiling M: states (a, b) with a, b <= M.
	Max int
	// TieValue is the value assigned to the double-extinction state
	// (0,0) in the ρ system. The paper's strict definition scores it 0
	// (no species has positive count at T(S)); 0.5 recovers the clean
	// a/(a+b) solution of Theorems 20/23 (measured side by side in the
	// E-EXACT record of the generated EXPERIMENTS.md).
	TieValue float64
	// Tol is the Gauss–Seidel convergence tolerance (default 1e-12).
	Tol float64
	// MaxSweeps caps the iteration count (default 200000).
	MaxSweeps int
}

func (o *Options) normalize() error {
	if o.Max < 1 {
		return fmt.Errorf("exact: grid ceiling %d < 1", o.Max)
	}
	if !(o.TieValue >= 0 && o.TieValue <= 1) {
		return fmt.Errorf("exact: tie value %v outside [0, 1]", o.TieValue)
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 200000
	}
	return nil
}

// Solution holds the solved grids.
type Solution struct {
	max int
	// rho[a][b] = Pr[species 0 wins | start (a, b)].
	rho [][]float64
	// steps[a][b] = E[consensus time | start (a, b)]; nil unless solved.
	steps [][]float64
}

// Max returns the grid ceiling.
func (s *Solution) Max() int { return s.max }

// Rho returns the exact win probability of species 0 from (a, b). States
// outside the solved grid return an error.
func (s *Solution) Rho(a, b int) (float64, error) {
	if a < 0 || b < 0 || a > s.max || b > s.max {
		return 0, fmt.Errorf("exact: state (%d, %d) outside grid [0, %d]^2", a, b, s.max)
	}
	return s.rho[a][b], nil
}

// Steps returns the expected consensus time from (a, b). It errors if the
// solve was run without WithSteps or the state is outside the grid.
func (s *Solution) Steps(a, b int) (float64, error) {
	if s.steps == nil {
		return 0, fmt.Errorf("exact: steps grid not solved (use SolveWithSteps or SolveNetworkWithSteps)")
	}
	if a < 0 || b < 0 || a > s.max || b > s.max {
		return 0, fmt.Errorf("exact: state (%d, %d) outside grid [0, %d]^2", a, b, s.max)
	}
	return s.steps[a][b], nil
}

// transition captures one enabled jump from a grid state.
type transition struct {
	prob   float64
	a2, b2 int
}

// transitionsInto fills dst with the jump-chain transitions from (a, b) on
// the truncated grid and returns the filled slice. Births that would leave
// the grid are disabled (renormalized away by the jump chain).
func transitionsInto(dst []transition, p lv.Params, a, b, max int) []transition {
	dst = dst[:0]
	s := lv.State{X0: a, X1: b}
	props, _ := lv.PropensitiesFor(p, s)
	var total float64
	for k, v := range props {
		if v <= 0 {
			continue
		}
		kind := lv.EventKind(k)
		next := lv.ApplyEvent(p, s, kind)
		if next.X0 > max || next.X1 > max {
			continue // truncated birth
		}
		dst = append(dst, transition{prob: v, a2: next.X0, b2: next.X1})
		total += v
	}
	for i := range dst {
		dst[i].prob /= total
	}
	if total == 0 {
		return dst[:0]
	}
	return dst
}

// Solve computes the ρ grid for the given chain parameters.
func Solve(params lv.Params, opts Options) (*Solution, error) {
	return solveLV(params, opts, false)
}

// SolveWithSteps computes both the ρ grid and the expected consensus-time
// grid.
func SolveWithSteps(params lv.Params, opts Options) (*Solution, error) {
	return solveLV(params, opts, true)
}

func solveLV(params lv.Params, opts Options, withSteps bool) (*Solution, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return solve(opts, withSteps, func(dst []transition, a, b int) []transition {
		return transitionsInto(dst, params, a, b, opts.Max)
	})
}

// solve is the one solver behind every front end: next fills dst with the
// truncated, normalized transitions out of grid state (a, b), none when no
// move is enabled.
func solve(opts Options, withSteps bool, next func(dst []transition, a, b int) []transition) (*Solution, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	m := opts.Max

	sol := &Solution{max: m, rho: newGrid(m)}
	// Boundary conditions: species 0 has won on the b = 0 edge (a > 0),
	// lost on the a = 0 edge, and the double-extinction corner takes the
	// tie value.
	for a := 1; a <= m; a++ {
		sol.rho[a][0] = 1
	}
	sol.rho[0][0] = opts.TieValue
	if err := gaussSeidel(sol.rho, 0, opts, next); err != nil {
		return nil, err
	}

	if withSteps {
		sol.steps = newGrid(m)
		if err := gaussSeidel(sol.steps, 1, opts, next); err != nil {
			return nil, err
		}
	}
	return sol, nil
}

func newGrid(m int) [][]float64 {
	g := make([][]float64, m+1)
	cells := make([]float64, (m+1)*(m+1))
	for a := range g {
		g[a], cells = cells[:m+1], cells[m+1:]
	}
	return g
}

// gaussSeidel sweeps the interior states (a, b >= 1), setting each to
// base + Σ p·grid(S′) over its transitions, until a sweep moves every cell
// by less than Tol: base 0 gives the ρ recurrence, base 1 the
// expected-time one. A state with no enabled move (all rates zero, so the
// chain never reaches consensus) keeps its zero: ρ scores it as a loss,
// matching the Monte-Carlo convention for non-convergence, and E[T] leaves
// it undefined.
func gaussSeidel(grid [][]float64, base float64, opts Options, next func(dst []transition, a, b int) []transition) error {
	m := opts.Max
	scratch := make([]transition, 0, lv.NumEventKinds)
	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		var maxDelta float64
		for a := 1; a <= m; a++ {
			for b := 1; b <= m; b++ {
				scratch = next(scratch, a, b)
				if len(scratch) == 0 {
					continue
				}
				v := base
				for _, tr := range scratch {
					// The conversion rounds the product on its own,
					// so no architecture fuses it into the sum.
					v += float64(tr.prob * grid[tr.a2][tr.b2])
				}
				if d := math.Abs(v - grid[a][b]); d > maxDelta {
					maxDelta = d
				}
				grid[a][b] = v
			}
		}
		if maxDelta < opts.Tol {
			return nil
		}
	}
	return fmt.Errorf("exact: Gauss–Seidel did not converge within %d sweeps", opts.MaxSweeps)
}

// ErrorBound estimates the truncation sensitivity at (a, b) by re-solving on
// a smaller grid and reporting |ρ_M(a,b) − ρ_{M'}(a,b)| for M' = 3M/4. A
// small value indicates the ceiling no longer matters at (a, b).
func ErrorBound(params lv.Params, a, b int, opts Options) (float64, error) {
	full, err := Solve(params, opts)
	if err != nil {
		return 0, err
	}
	smaller := opts
	smaller.Max = opts.Max * 3 / 4
	if a > smaller.Max || b > smaller.Max {
		return 0, fmt.Errorf("exact: state (%d, %d) outside the reduced grid %d", a, b, smaller.Max)
	}
	reduced, err := Solve(params, smaller)
	if err != nil {
		return 0, err
	}
	vFull, err := full.Rho(a, b)
	if err != nil {
		return 0, err
	}
	vReduced, err := reduced.Rho(a, b)
	if err != nil {
		return 0, err
	}
	return math.Abs(vFull - vReduced), nil
}
