package rng

import "math"

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0; stochastic-kinetics callers always
// hold a positive total propensity when they draw a holding time.
func (src *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	// -log(U) with U in (0, 1]. Float64 returns [0, 1); use 1-U to avoid
	// log(0).
	return -log(1-src.Float64()) / rate
}

// Norm returns a standard normally distributed value using the Marsaglia
// polar method with a cached spare.
func (src *Source) Norm() float64 {
	if src.hasSpare {
		src.hasSpare = false
		return src.spare
	}
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * log(s) / s)
		src.spare = v * f
		src.hasSpare = true
		return u * f
	}
}

// Geometric returns the number of failures before the first success in a
// sequence of Bernoulli(p) trials, i.e. a Geometric(p) value supported on
// {0, 1, 2, ...}. It panics if p <= 0 or p > 1.
func (src *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric called with p outside (0, 1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(log(U) / log(1-p)).
	u := 1 - src.Float64() // in (0, 1]
	return int(log(u) / log(1-p))
}

// GeometricCapped returns min(G, max) for G ~ Geometric(p), the number of
// failures before the first success, without ever materializing G: for
// small p the raw inversion value can exceed the integer range, so the
// comparison happens in floating point. Callers that only need "did the
// success happen within my remaining budget" — e.g. the batch population
// kernel skipping null interactions against an interaction budget — use
// this instead of Geometric. It panics if p <= 0 or p > 1, or if max < 0.
func (src *Source) GeometricCapped(p float64, max int) int {
	if p <= 0 || p > 1 {
		panic("rng: GeometricCapped called with p outside (0, 1]")
	}
	if max < 0 {
		panic("rng: GeometricCapped called with negative cap")
	}
	if p == 1 {
		return 0
	}
	d := log(1 - p)
	if d == 0 {
		// p below ~1e-17: 1−p rounds to 1. The geometric mean exceeds
		// 10^16 failures, so any realistic cap is hit with certainty (up
		// to the same rounding). Consume the uniform regardless, so the
		// stream advances identically either way.
		src.Float64()
		return max
	}
	u := 1 - src.Float64() // in (0, 1]
	g := log(u) / d
	if g >= float64(max) {
		return max
	}
	return int(g)
}

// Binomial returns a Binomial(n, p) distributed value.
//
// For small n·p it uses exact inversion by multiplication (BINV). For large
// means, where exact inversion becomes numerically fragile and slow, it falls
// back to a normal approximation with continuity correction, clamped to
// [0, n]. The crossover is far above the regimes exercised by the simulators
// in this repository, which only use small-mean binomials.
func (src *Source) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial called with negative n")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so the inversion loop runs over the smaller tail.
	if p > 0.5 {
		return n - src.Binomial(n, 1-p)
	}
	mean := float64(n) * p
	if mean <= 30 {
		return src.binomialInversion(n, p)
	}
	// Normal approximation with continuity correction.
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Floor(mean + sd*src.Norm() + 0.5))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// binomialInversion implements the BINV algorithm: walk the binomial PMF from
// k = 0 upward, subtracting probabilities from a uniform draw.
func (src *Source) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	// f = P(X = 0) = q^n, computed in log space for robustness.
	f := math.Exp(float64(n) * log(q))
	u := src.Float64()
	for k := 0; ; k++ {
		if u < f {
			return k
		}
		u -= f
		if k >= n {
			// Floating-point slack: the PMF sums to 1 only up to
			// rounding, so a draw very close to 1 can fall through.
			return n
		}
		f *= s * float64(n-k) / float64(k+1)
	}
}

// Poisson returns a Poisson(mean) distributed value. It panics if mean < 0.
//
// Small means use Knuth's multiplication method; large means use Hörmann's
// PTRS transformed-rejection sampler, which is exact (up to floating point)
// for mean >= 10.
func (src *Source) Poisson(mean float64) int {
	switch {
	case mean < 0:
		panic("rng: Poisson called with negative mean")
	case mean == 0:
		return 0
	case mean < 10:
		return src.poissonKnuth(mean)
	default:
		return src.poissonPTRS(mean)
	}
}

func (src *Source) poissonKnuth(mean float64) int {
	limit := math.Exp(-mean)
	prod := src.Float64()
	k := 0
	for prod > limit {
		prod *= src.Float64()
		k++
	}
	return k
}

// poissonPTRS implements W. Hörmann's "transformed rejection with squeeze"
// sampler (PTRS, 1993), valid for mean >= 10.
func (src *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMean := log(mean)

	for {
		u := src.Float64() - 0.5
		v := src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-lg {
			return int(k)
		}
	}
}
