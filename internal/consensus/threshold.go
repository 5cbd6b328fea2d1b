package consensus

import (
	"fmt"
	"math"

	"lvmajority/internal/progress"
	"lvmajority/internal/stats"
)

// ThresholdOptions configures FindThreshold.
type ThresholdOptions struct {
	// Target is the success probability the threshold must reach; zero
	// defaults to 1 − 1/n, the paper's high-probability criterion.
	Target float64
	// Trials is the Monte-Carlo sample size per evaluated gap (default
	// 2000).
	Trials int
	// Workers is passed through to the estimator.
	Workers int
	// Seed determines all randomness (per-gap streams are derived from
	// it, so re-running reproduces the same search path).
	Seed uint64
	// MaxDelta caps the search (default n−2, the largest feasible gap
	// with a non-empty minority).
	MaxDelta int
	// EarlyStop probes each gap with the sequential estimator, which
	// stops as soon as the confidence interval settles the comparison
	// against the target — often an order of magnitude fewer trials at
	// gaps far from the threshold. See EstimateOptions.EarlyStop for the
	// sequential-testing caveat.
	EarlyStop bool
	// Hint warm-starts the search with a guess for the threshold —
	// typically the threshold found at the previous, smaller n of a
	// sweep, since Ψ(n) is monotone in n. The search probes the hint
	// first and brackets outward from it, so an accurate hint replaces
	// the exponential bracketing phase with one or two confirmation
	// probes. Zero (or an infeasible value) falls back to the cold
	// exponential search. When the probe outcomes are monotone in the
	// gap — which the whole search already assumes — the returned
	// threshold is identical to the cold search's.
	Hint int
	// Estimator overrides the per-gap estimator. internal/sweep uses it
	// to layer memoized and persistent caching over the default
	// estimators; nil selects DefaultEstimator. The override must be
	// deterministic in its arguments.
	Estimator ProbeEstimator
	// Interrupt, when non-nil, is polled between trials of every probe; a
	// non-nil return aborts the search with that error. It never affects
	// results while it returns nil.
	Interrupt func() error
	// Progress, when non-nil, is forwarded into every probe's estimator
	// options so trial and estimate snapshots flow out of the search.
	// Probe-level events (start, settle, cache provenance) are emitted by
	// internal/sweep, which owns the cache. Observation-only.
	Progress progress.Hook
}

// ProbeEstimator evaluates one gap during a threshold search. The options
// carry the resolved trial count and the derived per-gap seed, so equal
// arguments must always produce the same estimate.
type ProbeEstimator func(delta int, opts EstimateOptions) (stats.BernoulliEstimate, error)

// DefaultEstimator returns the estimator FindThreshold uses when
// ThresholdOptions.Estimator is nil: EstimateWinProbability, sequential
// against target when earlyStop is set.
func DefaultEstimator(p Protocol, n int, target float64, earlyStop bool) ProbeEstimator {
	return func(delta int, opts EstimateOptions) (stats.BernoulliEstimate, error) {
		opts.EarlyStop, opts.Target = earlyStop, target
		return EstimateWinProbability(p, n, delta, opts)
	}
}

// Evaluation records one probed gap during a threshold search.
type Evaluation struct {
	Delta    int
	Estimate stats.BernoulliEstimate
}

// ThresholdResult is the outcome of a threshold search.
type ThresholdResult struct {
	// N is the total initial population.
	N int
	// Target is the success probability that defined the threshold.
	Target float64
	// Threshold is the smallest probed gap whose estimated ρ reached
	// Target, or −1 if no feasible gap reached it (Found = false).
	Threshold int
	// Found reports whether any feasible gap reached the target.
	Found bool
	// Evaluations lists every probed gap in probe order.
	Evaluations []Evaluation
}

// FindThreshold locates the empirical majority-consensus threshold Ψ(n): the
// smallest gap Δ (on the parity-feasible grid) whose estimated success
// probability reaches the target. It assumes ρ is non-decreasing in Δ —
// true for every protocol in this repository — and uses exponential search
// to bracket the threshold followed by binary search, so the number of
// estimator calls is O(log n).
func FindThreshold(p Protocol, n int, opts ThresholdOptions) (ThresholdResult, error) {
	if p == nil {
		return ThresholdResult{}, fmt.Errorf("consensus: nil protocol")
	}
	if n < 3 {
		return ThresholdResult{}, fmt.Errorf("consensus: population %d too small for a threshold search", n)
	}
	target := opts.Target
	if target <= 0 {
		target = 1 - 1/float64(n)
	}
	if target >= 1 {
		return ThresholdResult{}, fmt.Errorf("consensus: unreachable target %v", target)
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = 2000
	}
	maxDelta := opts.MaxDelta
	if maxDelta <= 0 || maxDelta > n-2 {
		maxDelta = n - 2
	}
	maxDelta = MatchParity(n, maxDelta)
	if maxDelta > n-2 {
		maxDelta -= 2
	}
	if maxDelta < MatchParity(n, 0) {
		return ThresholdResult{}, fmt.Errorf("consensus: no feasible gap for n=%d", n)
	}

	res := ThresholdResult{N: n, Target: target, Threshold: -1}

	estimator := opts.Estimator
	if estimator == nil {
		estimator = DefaultEstimator(p, n, target, opts.EarlyStop)
	}

	// Deterministic per-gap seeds: mix the root seed with the gap so the
	// same gap is always evaluated with the same stream, which keeps the
	// bisection self-consistent. Results are memoized so no gap is ever
	// estimated twice in one search (warm-started bracketing and the
	// parity clamp in the binary search can both revisit a gap) and
	// Evaluations never holds duplicates.
	memo := make(map[int]bool)
	probe := func(delta int) (bool, error) {
		if ok, seen := memo[delta]; seen {
			return ok, nil
		}
		est, err := estimator(delta, EstimateOptions{
			Trials:    trials,
			Workers:   opts.Workers,
			Seed:      opts.Seed ^ (uint64(delta)*0x9e3779b97f4a7c15 + 0x1234567),
			Interrupt: opts.Interrupt,
			Progress:  opts.Progress,
		})
		if err != nil {
			// Wrap with the probe's coordinates so a failure deep in an
			// engine (a panic recovered by mc, an injected fault) reports
			// which point of the search died, while %w keeps the underlying
			// error reachable for errors.Is/As.
			return false, fmt.Errorf("consensus: probe n=%d delta=%d failed: %w", n, delta, err)
		}
		res.Evaluations = append(res.Evaluations, Evaluation{Delta: delta, Estimate: est})
		ok := est.P() >= target
		memo[delta] = ok
		return ok, nil
	}

	minFeasible := MatchParity(n, 0) // smallest feasible gap (2 or 1)
	if minFeasible == 0 {
		minFeasible = 2 // a gap of zero cannot define a majority
	}
	lo := minFeasible
	var hi int
	found := false

	// expand runs the exponential bracketing phase from start, with grow
	// picking each successive gap, until a probe passes (hi found) or
	// maxDelta fails (no threshold). It maintains the invariant that
	// every feasible gap below lo failed or is assumed to fail by
	// monotonicity.
	expand := func(start int, grow func(delta int) int) error {
		delta := start
		for {
			if delta > maxDelta {
				delta = maxDelta
			}
			ok, err := probe(delta)
			if err != nil {
				return err
			}
			if ok {
				hi = delta
				found = true
				return nil
			}
			if delta == maxDelta {
				return nil
			}
			lo = delta + 2 // threshold is strictly above delta on the parity grid
			next := grow(delta)
			if next <= delta {
				next = delta + 2
			}
			delta = MatchParity(n, next)
		}
	}
	doubling := func(delta int) int { return delta * 2 }

	if hint := MatchParity(n, opts.Hint); opts.Hint > 0 {
		// Warm start: confirm the hinted threshold with one or two
		// probes, falling into bisection or exponential expansion only
		// when the hint is off.
		if hint > maxDelta {
			hint = maxDelta
		}
		if hint < minFeasible {
			hint = minFeasible
		}
		ok, err := probe(hint)
		if err != nil {
			return res, err
		}
		if ok {
			hi = hint
			found = true
			if hint > minFeasible {
				below, err := probe(hint - 2)
				if err != nil {
					return res, err
				}
				if below {
					// Hint overshot: the threshold is lower;
					// bisect down to the smallest feasible gap.
					hi = hint - 2
				} else {
					lo = hint // bracket collapsed: threshold is exactly the hint
				}
			}
		} else {
			// The hint failed, so the threshold is strictly above
			// it — usually only slightly, since the hint tracks a
			// slowly growing monotone curve. Expand the offset from
			// the hint geometrically (hint+2, hint+6, hint+14, …)
			// rather than doubling the gap itself, which would
			// overshoot and inflate the bisection range.
			lo = hint + 2
			inc := 2
			if err := expand(MatchParity(n, hint+2), func(delta int) int {
				inc *= 2
				return delta + inc
			}); err != nil {
				return res, err
			}
		}
	} else if err := expand(lo, doubling); err != nil {
		return res, err
	}
	if !found {
		return res, nil
	}

	// Binary search in [lo, hi] on the parity grid; every gap below lo is
	// known to fail and hi is known to succeed.
	for lo < hi {
		mid := (lo + hi) / 2
		// Round down onto the parity grid so mid stays strictly
		// below hi.
		if (n-mid)%2 != 0 {
			mid--
		}
		if mid < lo {
			mid = lo
		}
		ok, err := probe(mid)
		if err != nil {
			return res, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 2
		}
	}
	res.Threshold = hi
	res.Found = true
	return res, nil
}

// CurvePoint is one (n, threshold) pair of a threshold scaling curve.
type CurvePoint struct {
	N         int
	Threshold int
	// Found is false when no feasible gap reached the target at this n;
	// Threshold is then −1.
	Found bool
}

// FitCurve fits Ψ(n) ≈ C·n^k through the found points of a threshold curve
// and returns the power-law fit. Points with Found == false or non-positive
// thresholds are skipped; at least two usable points are required.
func FitCurve(points []CurvePoint) (stats.PowerLawFit, error) {
	var xs, ys []float64
	for _, pt := range points {
		if !pt.Found || pt.Threshold <= 0 {
			continue
		}
		xs = append(xs, float64(pt.N))
		ys = append(ys, float64(pt.Threshold))
	}
	if len(xs) < 2 {
		return stats.PowerLawFit{}, fmt.Errorf("consensus: need >= 2 found points to fit, have %d", len(xs))
	}
	return stats.PowerLaw(xs, ys)
}

// ShapeLog2 is the reference shape log₂²(n) for the self-destructive upper
// bound (Theorem 14).
func ShapeLog2(n float64) float64 {
	l := math.Log2(n)
	return l * l
}

// ShapeSqrtLog is the reference shape √(n·log₂ n), matching the dominant
// Hoeffding term t = √((k+1)·c·n·ln n) in the non-self-destructive upper
// bound (Theorem 18).
func ShapeSqrtLog(n float64) float64 {
	return math.Sqrt(n * math.Log2(n))
}

// ShapeSqrt is the reference shape √n, the non-self-destructive lower bound
// (Theorem 19).
func ShapeSqrt(n float64) float64 { return math.Sqrt(n) }
