package stats

import (
	"math"
	"testing"

	"lvmajority/internal/rng"
)

func TestWilsonIntervalBasic(t *testing.T) {
	e, err := WilsonInterval(50, 100, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if e.P() != 0.5 {
		t.Errorf("P = %v, want 0.5", e.P())
	}
	if e.Lo >= 0.5 || e.Hi <= 0.5 {
		t.Errorf("interval [%v, %v] does not contain 0.5", e.Lo, e.Hi)
	}
	// Known Wilson values for 50/100 at z=1.96: approximately
	// [0.404, 0.596].
	if math.Abs(e.Lo-0.404) > 0.005 || math.Abs(e.Hi-0.596) > 0.005 {
		t.Errorf("interval [%v, %v], want ~[0.404, 0.596]", e.Lo, e.Hi)
	}
}

func TestWilsonIntervalExtremes(t *testing.T) {
	zero, err := WilsonInterval(0, 100, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Lo != 0 {
		t.Errorf("Lo = %v for 0 successes, want 0", zero.Lo)
	}
	if zero.Hi <= 0 || zero.Hi > 0.1 {
		t.Errorf("Hi = %v for 0/100, want small positive", zero.Hi)
	}
	full, err := WilsonInterval(100, 100, Z95)
	if err != nil {
		t.Fatal(err)
	}
	if full.Hi != 1 {
		t.Errorf("Hi = %v for all successes, want 1", full.Hi)
	}
	if full.Lo >= 1 || full.Lo < 0.9 {
		t.Errorf("Lo = %v for 100/100, want slightly below 1", full.Lo)
	}
}

func TestWilsonIntervalErrors(t *testing.T) {
	cases := []struct {
		s, n int
		z    float64
	}{
		{0, 0, Z95},
		{-1, 10, Z95},
		{11, 10, Z95},
		{5, 10, 0},
		{5, 10, -1},
	}
	for _, tc := range cases {
		if _, err := WilsonInterval(tc.s, tc.n, tc.z); err == nil {
			t.Errorf("WilsonInterval(%d, %d, %v) did not error", tc.s, tc.n, tc.z)
		}
	}
}

func TestWilsonIntervalCoverage(t *testing.T) {
	// The 95% interval should cover the true p in roughly 95% of repeated
	// experiments; demand at least 90% to keep the test robust.
	src := rng.New(7)
	const p = 0.3
	const experiments = 2000
	const trialsPer = 200
	covered := 0
	for e := 0; e < experiments; e++ {
		successes := 0
		for i := 0; i < trialsPer; i++ {
			if src.Bernoulli(p) {
				successes++
			}
		}
		est, err := WilsonInterval(successes, trialsPer, Z95)
		if err != nil {
			t.Fatal(err)
		}
		if est.Lo <= p && p <= est.Hi {
			covered++
		}
	}
	rate := float64(covered) / experiments
	if rate < 0.90 {
		t.Errorf("coverage = %v, want >= 0.90", rate)
	}
}

func TestWilsonIntervalMonotoneWidth(t *testing.T) {
	// More trials at the same proportion must not widen the interval.
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 1000, 10000} {
		e, err := WilsonInterval(n/2, n, Z95)
		if err != nil {
			t.Fatal(err)
		}
		if w := e.Hi - e.Lo; w > prev {
			t.Errorf("width grew from %v to %v at n=%d", prev, w, n)
		}
		prev = e.Hi - e.Lo
	}
}

func TestBernoulliEstimateZeroTrials(t *testing.T) {
	var e BernoulliEstimate
	if e.P() != 0 {
		t.Errorf("P of zero-value estimate = %v, want 0", e.P())
	}
}
