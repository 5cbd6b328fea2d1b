// Package stats provides the statistical machinery used by the experiment
// harness and the test suite: streaming moments, quantiles, empirical CDFs,
// binomial confidence intervals, regression for scaling-exponent fits, and
// the mergeable quantile digest behind the server's duration summaries.
//
// The pieces the rest of the repository builds on: Running (streaming
// mean/variance/extrema without storing samples), Quantile and NewECDF
// (order statistics and domination checks for the Lemma 9 experiments),
// WilsonInterval and BernoulliEstimate (the confidence intervals behind
// every ρ estimate and the early-stopping threshold probes), PowerLaw
// (the scaling-exponent fits classifying Table 1 thresholds), and the
// normal CDF used by the diffusion approximation. Everything is
// deterministic: no function here draws randomness, so the statistics
// layer never participates in the seed-derivation contract.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates streaming sample moments using Welford's algorithm.
// The zero value is an empty accumulator ready for use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 if no samples were added.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance, or 0 for fewer than two
// samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean, or 0 if no samples were
// added.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Min returns the smallest sample, or 0 if no samples were added.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 if no samples were added.
func (r *Running) Max() float64 { return r.max }

// Merge combines another accumulator into r using the parallel variant of
// Welford's update, so statistics can be accumulated per worker and merged.
func (r *Running) Merge(other *Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *other
		return
	}
	nA, nB := float64(r.n), float64(other.n)
	delta := other.mean - r.mean
	total := nA + nB
	r.mean += delta * nB / total
	r.m2 += other.m2 + delta*delta*nA*nB/total
	r.n += other.n
	if other.min < r.min {
		r.min = other.min
	}
	if other.max > r.max {
		r.max = other.max
	}
}

// String summarizes the accumulator for logs and tables.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It returns an error for an empty
// input or q outside [0, 1]. The input slice is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: Quantile called with q=%v outside [0, 1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the sample median of xs. It returns an error for an empty
// input.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HarmonicNumber returns H_n = sum_{i=1..n} 1/i, the quantity that bounds the
// expected birth count of the paper's nice chains (Lemma 6). It returns 0 for
// n <= 0.
func HarmonicNumber(n int) float64 {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
