package consensus

import (
	"math"
	"testing"

	"lvmajority/internal/lv"
)

func TestEarlyStopValidation(t *testing.T) {
	if _, err := EstimateWinProbability(nil, 100, 10, EstimateOptions{EarlyStop: true, Target: 0.9}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := EstimateWinProbability(fixedProtocol{0.5}, 100, 10, EstimateOptions{EarlyStop: true, Target: 0}); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := EstimateWinProbability(fixedProtocol{0.5}, 100, 10, EstimateOptions{EarlyStop: true, Target: 1}); err == nil {
		t.Error("target 1 accepted")
	}
}

func TestEarlyStopStopsEarlyOnClearCases(t *testing.T) {
	// p = 0.99 vs target 0.5: the first batch should settle it.
	est, err := EstimateWinProbability(fixedProtocol{0.99}, 100, 10, EstimateOptions{
		Trials:    100000,
		Seed:      1,
		EarlyStop: true,
		Target:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials >= 100000 {
		t.Errorf("used all %d trials on a trivially clear case", est.Trials)
	}
	if est.Lo <= 0.5 {
		t.Errorf("estimate %v does not exclude the target", est)
	}

	// Symmetric: p = 0.01 vs target 0.5 rejects quickly.
	est, err = EstimateWinProbability(fixedProtocol{0.01}, 100, 10, EstimateOptions{
		Trials:    100000,
		Seed:      2,
		EarlyStop: true,
		Target:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials >= 100000 {
		t.Errorf("used all %d trials on a trivially clear rejection", est.Trials)
	}
	if est.Hi >= 0.5 {
		t.Errorf("estimate %v does not exclude the target", est)
	}
}

func TestEarlyStopRunsFullBudgetOnBoundaryCases(t *testing.T) {
	// p exactly at the target: no early stop should trigger reliably, so
	// the full budget is consumed.
	est, err := EstimateWinProbability(fixedProtocol{0.5}, 100, 10, EstimateOptions{
		Trials:    3000,
		Seed:      3,
		EarlyStop: true,
		Target:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials < 3000 {
		// Possible but rare (a lucky CI excursion); tolerate only a
		// near-full run.
		if est.Trials < 1500 {
			t.Errorf("stopped after %d trials at the boundary", est.Trials)
		}
	}
	if math.Abs(est.P()-0.5) > 0.05 {
		t.Errorf("estimate %v far from truth 0.5", est)
	}
}

func TestEarlyStopDeterministic(t *testing.T) {
	opts := EstimateOptions{Trials: 5000, Seed: 9, Workers: 3, EarlyStop: true, Target: 0.6}
	a, err := EstimateWinProbability(fixedProtocol{0.7}, 100, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateWinProbability(fixedProtocol{0.7}, 100, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Successes != b.Successes || a.Trials != b.Trials {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestFindThresholdEarlyStopAgrees(t *testing.T) {
	// On a steep ramp, the early-stop search must land on (nearly) the
	// same threshold as the exhaustive one, with fewer total trials.
	slow, err := FindThreshold(noisyRampProtocol{40}, 200, ThresholdOptions{
		Target: 0.9, Trials: 4000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FindThreshold(noisyRampProtocol{40}, 200, ThresholdOptions{
		Target: 0.9, Trials: 4000, Seed: 11, EarlyStop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slow.Found || !fast.Found {
		t.Fatal("threshold not found")
	}
	if d := fast.Threshold - slow.Threshold; d < -4 || d > 4 {
		t.Errorf("early-stop threshold %d vs exhaustive %d", fast.Threshold, slow.Threshold)
	}
	totalTrials := func(r ThresholdResult) int {
		sum := 0
		for _, ev := range r.Evaluations {
			sum += ev.Estimate.Trials
		}
		return sum
	}
	if totalTrials(fast) >= totalTrials(slow) {
		t.Errorf("early stop used %d trials, exhaustive %d", totalTrials(fast), totalTrials(slow))
	}
}

func TestFindThresholdEarlyStopLV(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)}
	res, err := FindThreshold(p, 256, ThresholdOptions{Trials: 2000, Seed: 13, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no threshold found")
	}
	if res.Threshold < 2 || res.Threshold > 64 {
		t.Errorf("threshold = %d, outside the plausible SD band at n=256", res.Threshold)
	}
}
