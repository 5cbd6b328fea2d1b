package consensus

import (
	"fmt"
	"math"
	"testing"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// stepProtocol succeeds deterministically once delta reaches its cutoff.
type stepProtocol struct {
	cutoff int
}

func (s stepProtocol) Name() string { return fmt.Sprintf("step(%d)", s.cutoff) }

func (s stepProtocol) Trial(_, delta int, _ *rng.Source) (bool, error) {
	return delta >= s.cutoff, nil
}

// noisyRampProtocol has success probability ramping linearly from 0 at
// delta=0 to 1 at delta=ramp.
type noisyRampProtocol struct {
	ramp int
}

func (s noisyRampProtocol) Name() string { return fmt.Sprintf("ramp(%d)", s.ramp) }

func (s noisyRampProtocol) Trial(_, delta int, src *rng.Source) (bool, error) {
	p := float64(delta) / float64(s.ramp)
	return src.Bernoulli(p), nil
}

func TestFindThresholdValidation(t *testing.T) {
	if _, err := FindThreshold(nil, 100, ThresholdOptions{}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := FindThreshold(stepProtocol{1}, 2, ThresholdOptions{}); err == nil {
		t.Error("tiny population accepted")
	}
	if _, err := FindThreshold(stepProtocol{1}, 100, ThresholdOptions{Target: 1.5}); err == nil {
		t.Error("unreachable target accepted")
	}
}

func TestFindThresholdExactStep(t *testing.T) {
	for _, cutoff := range []int{2, 6, 20, 60} {
		res, err := FindThreshold(stepProtocol{cutoff}, 100, ThresholdOptions{
			Trials: 50,
			Seed:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("cutoff %d: threshold not found", cutoff)
		}
		want := MatchParity(100, cutoff)
		if res.Threshold != want {
			t.Errorf("cutoff %d: threshold = %d, want %d", cutoff, res.Threshold, want)
		}
	}
}

func TestFindThresholdOddPopulation(t *testing.T) {
	res, err := FindThreshold(stepProtocol{10}, 101, ThresholdOptions{Trials: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("threshold not found")
	}
	// Parity grid for odd n is odd gaps; smallest feasible >= 10 is 11.
	if res.Threshold != 11 {
		t.Errorf("threshold = %d, want 11", res.Threshold)
	}
}

func TestFindThresholdNotFound(t *testing.T) {
	// A protocol that never succeeds has no threshold.
	res, err := FindThreshold(stepProtocol{1 << 30}, 100, ThresholdOptions{Trials: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Threshold != -1 {
		t.Errorf("result = %+v, want not found", res)
	}
	if len(res.Evaluations) == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestFindThresholdAtMaximalGap(t *testing.T) {
	// Succeeds only at the largest feasible gap (n−2 for even n).
	res, err := FindThreshold(stepProtocol{98}, 100, ThresholdOptions{Trials: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Threshold != 98 {
		t.Errorf("result = %+v, want threshold 98", res)
	}
}

func TestFindThresholdImmediateSuccess(t *testing.T) {
	// Succeeds at every feasible gap: the threshold is the smallest one.
	res, err := FindThreshold(stepProtocol{0}, 100, ThresholdOptions{Trials: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Threshold != 2 {
		t.Errorf("result = %+v, want threshold 2 (smallest probed even gap)", res)
	}
}

func TestFindThresholdNoisyRamp(t *testing.T) {
	// With target 0.9 and a linear ramp to 1 at delta=50, the true
	// 0.9-threshold is 45; allow a small statistical neighborhood.
	res, err := FindThreshold(noisyRampProtocol{50}, 200, ThresholdOptions{
		Target: 0.9,
		Trials: 4000,
		Seed:   6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("threshold not found")
	}
	if res.Threshold < 40 || res.Threshold > 50 {
		t.Errorf("threshold = %d, want ~45", res.Threshold)
	}
}

func TestFindThresholdDeterministic(t *testing.T) {
	opts := ThresholdOptions{Trials: 500, Seed: 7}
	a, err := FindThreshold(noisyRampProtocol{30}, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindThreshold(noisyRampProtocol{30}, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Threshold != b.Threshold || len(a.Evaluations) != len(b.Evaluations) {
		t.Errorf("non-deterministic search: %+v vs %+v", a, b)
	}
}

func TestFindThresholdProbeCountLogarithmic(t *testing.T) {
	res, err := FindThreshold(stepProtocol{513}, 1<<14, ThresholdOptions{Trials: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("threshold not found")
	}
	if len(res.Evaluations) > 40 {
		t.Errorf("search used %d probes, want O(log n)", len(res.Evaluations))
	}
}

func TestFindThresholdLVEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	res, err := FindThreshold(p, 256, ThresholdOptions{Trials: 800, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no threshold found for SD LV at n=256")
	}
	// The SD threshold is polylogarithmic: it must sit far below √n·log n.
	if float64(res.Threshold) > ShapeSqrtLog(256) {
		t.Errorf("SD threshold %d at n=256 unexpectedly above √(n log n) = %v", res.Threshold, ShapeSqrtLog(256))
	}
}

// countingEstimator wraps the default estimator and records how many times
// each gap was estimated.
func countingEstimator(p Protocol, n int, target float64, earlyStop bool, calls map[int]int) ProbeEstimator {
	inner := DefaultEstimator(p, n, target, earlyStop)
	return func(delta int, opts EstimateOptions) (stats.BernoulliEstimate, error) {
		calls[delta]++
		return inner(delta, opts)
	}
}

func TestFindThresholdHint(t *testing.T) {
	const cutoff = 20
	want := MatchParity(100, cutoff)
	cold, err := FindThreshold(stepProtocol{cutoff}, 100, ThresholdOptions{Trials: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Threshold != want {
		t.Fatalf("cold threshold = %d, want %d", cold.Threshold, want)
	}
	for _, hint := range []int{1, 2, 10, want - 2, want, want + 2, 40, 97, 1 << 20} {
		res, err := FindThreshold(stepProtocol{cutoff}, 100, ThresholdOptions{
			Trials: 20, Seed: 1, Hint: hint,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Threshold != want {
			t.Errorf("hint %d: threshold = %d (found=%v), want %d", hint, res.Threshold, res.Found, want)
		}
		if hint == want && len(res.Evaluations) != 2 {
			t.Errorf("exact hint settled in %d probes, want 2 (confirm + adjacent)", len(res.Evaluations))
		}
		if len(res.Evaluations) > len(cold.Evaluations)+1 {
			t.Errorf("hint %d used %d probes, cold used %d", hint, len(res.Evaluations), len(cold.Evaluations))
		}
	}
}

func TestFindThresholdHintOddPopulation(t *testing.T) {
	// Odd n: the parity grid is odd; an even hint must be clamped onto it.
	for _, hint := range []int{1, 8, 11, 50} {
		res, err := FindThreshold(stepProtocol{10}, 101, ThresholdOptions{Trials: 20, Seed: 2, Hint: hint})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Threshold != 11 {
			t.Errorf("hint %d: threshold = %d, want 11", hint, res.Threshold)
		}
	}
}

func TestFindThresholdHintNotFound(t *testing.T) {
	res, err := FindThreshold(stepProtocol{1 << 30}, 100, ThresholdOptions{Trials: 20, Seed: 3, Hint: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found || res.Threshold != -1 {
		t.Errorf("result = %+v, want not found", res)
	}
}

func TestFindThresholdNoDuplicateEstimates(t *testing.T) {
	// No configuration — cold, hinted high, hinted low, odd or even n —
	// may estimate the same gap twice or append duplicate Evaluations.
	for _, n := range []int{100, 101, 1000} {
		for _, hint := range []int{0, 1, 7, 29, 30, 31, 64, 99, 1 << 15} {
			for _, cutoff := range []int{2, 29, 30, 98} {
				calls := make(map[int]int)
				res, err := FindThreshold(stepProtocol{cutoff}, n, ThresholdOptions{
					Trials:    20,
					Seed:      4,
					Hint:      hint,
					Estimator: countingEstimator(stepProtocol{cutoff}, n, 0, false, calls),
				})
				if err != nil {
					t.Fatal(err)
				}
				for delta, c := range calls {
					if c != 1 {
						t.Errorf("n=%d hint=%d cutoff=%d: delta %d estimated %d times", n, hint, cutoff, delta, c)
					}
				}
				seen := make(map[int]bool)
				for _, ev := range res.Evaluations {
					if seen[ev.Delta] {
						t.Errorf("n=%d hint=%d cutoff=%d: duplicate evaluation at delta %d", n, hint, cutoff, ev.Delta)
					}
					seen[ev.Delta] = true
				}
				if len(calls) != len(res.Evaluations) {
					t.Errorf("n=%d hint=%d cutoff=%d: %d estimator calls but %d evaluations", n, hint, cutoff, len(calls), len(res.Evaluations))
				}
			}
		}
	}
}

func TestFindThresholdEstimatorOverride(t *testing.T) {
	// A synthetic estimator fully determines the search: succeed from
	// gap 12 with a fabricated estimate, without running any trials.
	var called int
	res, err := FindThreshold(stepProtocol{1}, 100, ThresholdOptions{
		Trials: 20,
		Seed:   5,
		Estimator: func(delta int, opts EstimateOptions) (stats.BernoulliEstimate, error) {
			called++
			if opts.Trials != 20 {
				t.Errorf("estimator got %d trials, want 20", opts.Trials)
			}
			if delta >= 12 {
				return stats.BernoulliEstimate{Successes: 20, Trials: 20, Lo: 0.9, Hi: 1}, nil
			}
			return stats.BernoulliEstimate{Successes: 0, Trials: 20, Lo: 0, Hi: 0.1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Fatal("estimator override never called")
	}
	if !res.Found || res.Threshold != 12 {
		t.Errorf("threshold = %d (found=%v), want 12", res.Threshold, res.Found)
	}
}

func TestFindThresholdEarlyStopMatchesFixed(t *testing.T) {
	// For a protocol far from the target at every probed gap the
	// sequential estimator settles the same threshold as the fixed-size
	// one, with no more probes.
	fixed, err := FindThreshold(noisyRampProtocol{50}, 200, ThresholdOptions{Target: 0.9, Trials: 4000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	early, err := FindThreshold(noisyRampProtocol{50}, 200, ThresholdOptions{Target: 0.9, Trials: 4000, Seed: 6, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !early.Found {
		t.Fatal("early-stop search found no threshold")
	}
	if d := early.Threshold - fixed.Threshold; d < -4 || d > 4 {
		t.Errorf("early-stop threshold %d, fixed %d — outside the statistical neighborhood", early.Threshold, fixed.Threshold)
	}
	var earlyTrials, fixedTrials int
	for _, ev := range early.Evaluations {
		earlyTrials += ev.Estimate.Trials
	}
	for _, ev := range fixed.Evaluations {
		fixedTrials += ev.Estimate.Trials
	}
	if earlyTrials >= fixedTrials {
		t.Errorf("early stop spent %d trials, fixed %d — no saving", earlyTrials, fixedTrials)
	}
}

func TestFitCurve(t *testing.T) {
	points := []CurvePoint{
		{N: 100, Threshold: 10, Found: true},
		{N: 400, Threshold: 20, Found: true},
		{N: 1600, Threshold: 40, Found: true},
		{N: 6400, Threshold: -1, Found: false}, // skipped
	}
	fit, err := FitCurve(points)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-0.5) > 1e-9 {
		t.Errorf("exponent = %v, want 0.5", fit.Exponent)
	}
}

func TestFitCurveTooFewPoints(t *testing.T) {
	if _, err := FitCurve([]CurvePoint{{N: 10, Threshold: 5, Found: true}}); err == nil {
		t.Error("single point accepted")
	}
}

func TestShapes(t *testing.T) {
	if got := ShapeSqrt(64); got != 8 {
		t.Errorf("ShapeSqrt(64) = %v", got)
	}
	if got := ShapeLog2(256); got != 64 {
		t.Errorf("ShapeLog2(256) = %v, want 64", got)
	}
	if got := ShapeSqrtLog(256); math.Abs(got-math.Sqrt(256*8)) > 1e-12 {
		t.Errorf("ShapeSqrtLog(256) = %v", got)
	}
}
