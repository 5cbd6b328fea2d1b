// Package ode provides the small numeric ODE toolkit needed to integrate the
// deterministic mass-action counterpart of the stochastic Lotka–Volterra
// models (Eq. 4 of the paper): an adaptive Runge–Kutta–Fehlberg 4(5)
// integrator.
//
// The package exists because the reproduction environment has no numeric
// ecosystem; everything is stdlib. The integrator is general-purpose; the
// Lotka–Volterra vector field lives in lotka.go.
package ode

import (
	"fmt"
	"math"
)

// Func is a first-order vector field: it writes dy/dt into dydt given (t, y).
// Implementations must not retain or resize the slices.
type Func func(t float64, y []float64, dydt []float64)

// AdaptiveOptions configures Adaptive.
type AdaptiveOptions struct {
	// AbsTol and RelTol are the per-component error tolerances; zero
	// values default to 1e-9 and 1e-6 respectively.
	AbsTol, RelTol float64
	// InitialStep is the first attempted step size; zero picks
	// (t1−t0)/100.
	InitialStep float64
	// MaxSteps caps the number of accepted steps; zero means 1e6.
	MaxSteps int
	// Stop, if non-nil, is checked after every accepted step; returning
	// true ends the integration early.
	Stop func(t float64, y []float64) bool
}

// rkf45 coefficients (Fehlberg).
var (
	rkfA = [6]float64{0, 1.0 / 4, 3.0 / 8, 12.0 / 13, 1, 1.0 / 2}
	rkfB = [6][5]float64{
		{},
		{1.0 / 4},
		{3.0 / 32, 9.0 / 32},
		{1932.0 / 2197, -7200.0 / 2197, 7296.0 / 2197},
		{439.0 / 216, -8, 3680.0 / 513, -845.0 / 4104},
		{-8.0 / 27, 2, -3544.0 / 2565, 1859.0 / 4104, -11.0 / 40},
	}
	// 4th-order solution weights.
	rkfC4 = [6]float64{25.0 / 216, 0, 1408.0 / 2565, 2197.0 / 4104, -1.0 / 5, 0}
	// 5th-order solution weights.
	rkfC5 = [6]float64{16.0 / 135, 0, 6656.0 / 12825, 28561.0 / 56430, -9.0 / 50, 2.0 / 55}
)

// Result is the outcome of an adaptive integration.
type Result struct {
	// T is the time reached (t1, or earlier if Stop triggered).
	T float64
	// Y is the state at T.
	Y []float64
	// Steps is the number of accepted steps.
	Steps int
	// Stopped reports whether the Stop predicate ended the run.
	Stopped bool
}

// Adaptive integrates dy/dt = f(t, y) from t0 to t1 with the adaptive
// Runge–Kutta–Fehlberg 4(5) method.
func Adaptive(f Func, y0 []float64, t0, t1 float64, opts AdaptiveOptions) (Result, error) {
	if f == nil {
		return Result{}, fmt.Errorf("ode: nil vector field")
	}
	if len(y0) == 0 {
		return Result{}, fmt.Errorf("ode: empty initial state")
	}
	if t1 < t0 {
		return Result{}, fmt.Errorf("ode: t1=%v before t0=%v", t1, t0)
	}
	absTol := opts.AbsTol
	if absTol <= 0 {
		absTol = 1e-9
	}
	relTol := opts.RelTol
	if relTol <= 0 {
		relTol = 1e-6
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	h := opts.InitialStep
	if h <= 0 {
		h = (t1 - t0) / 100
	}
	if h <= 0 {
		// Degenerate zero-length interval.
		y := make([]float64, len(y0))
		copy(y, y0)
		return Result{T: t0, Y: y}, nil
	}

	dim := len(y0)
	y := make([]float64, dim)
	copy(y, y0)
	var k [6][]float64
	for i := range k {
		k[i] = make([]float64, dim)
	}
	tmp := make([]float64, dim)
	y4 := make([]float64, dim)
	y5 := make([]float64, dim)

	res := Result{T: t0}
	t := t0
	for t < t1 {
		if res.Steps >= maxSteps {
			return res, fmt.Errorf("ode: exceeded %d steps at t=%v", maxSteps, t)
		}
		if t+h > t1 {
			h = t1 - t
		}
		// Compute the six stages.
		for stage := 0; stage < 6; stage++ {
			for i := range tmp {
				tmp[i] = y[i]
				for j := 0; j < stage; j++ {
					tmp[i] += h * rkfB[stage][j] * k[j][i]
				}
			}
			f(t+rkfA[stage]*h, tmp, k[stage])
		}
		// Fourth- and fifth-order estimates and the error norm. A
		// non-finite estimate (possible when the trial step is far too
		// large for a stiff problem) counts as an arbitrarily large
		// error so the step is rejected and retried smaller.
		var errNorm float64
		for i := range y {
			var s4, s5 float64
			for stage := 0; stage < 6; stage++ {
				s4 += rkfC4[stage] * k[stage][i]
				s5 += rkfC5[stage] * k[stage][i]
			}
			y4[i] = y[i] + h*s4
			y5[i] = y[i] + h*s5
			scale := absTol + relTol*math.Max(math.Abs(y[i]), math.Abs(y5[i]))
			e := math.Abs(y5[i]-y4[i]) / scale
			if math.IsNaN(e) || math.IsInf(e, 0) {
				errNorm = math.Inf(1)
				break
			}
			if e > errNorm {
				errNorm = e
			}
		}
		if errNorm <= 1 {
			// Accept the (higher-order) step.
			t += h
			copy(y, y5)
			res.Steps++
			res.T = t
			if opts.Stop != nil && opts.Stop(t, y) {
				res.Stopped = true
				break
			}
		}
		// Step-size update with the usual safety factor and clamps.
		factor := 0.9 * math.Pow(1/math.Max(errNorm, 1e-10), 0.2)
		factor = math.Min(4, math.Max(0.1, factor))
		h *= factor
		if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return res, fmt.Errorf("ode: step size degenerated to %v at t=%v", h, t)
		}
	}
	res.Y = y
	return res, nil
}
