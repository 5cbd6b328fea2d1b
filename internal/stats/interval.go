package stats

import (
	"fmt"
	"math"
)

// BernoulliEstimate is a Monte-Carlo estimate of a success probability with
// its Wilson score confidence interval.
type BernoulliEstimate struct {
	Successes int
	Trials    int
	// Lo and Hi bound the true probability at the confidence level the
	// estimate was constructed with.
	Lo, Hi float64
}

// P returns the point estimate successes/trials, or 0 for zero trials.
func (e BernoulliEstimate) P() float64 {
	if e.Trials == 0 {
		return 0
	}
	return float64(e.Successes) / float64(e.Trials)
}

// String renders the estimate for logs and tables.
func (e BernoulliEstimate) String() string {
	return fmt.Sprintf("%.4f [%.4f, %.4f] (%d/%d)", e.P(), e.Lo, e.Hi, e.Successes, e.Trials)
}

// WilsonInterval returns the Wilson score interval for a binomial proportion
// with the given normal quantile z (z = 1.96 for ~95%, 2.58 for ~99%,
// 3.29 for ~99.9%). It returns an error for non-positive trials, negative
// successes, successes > trials, or non-positive z.
//
// Unlike the Wald interval, Wilson behaves sensibly at the extremes p̂ ∈
// {0, 1}, which matter here because high-probability consensus events produce
// success counts equal or very close to the trial count.
func WilsonInterval(successes, trials int, z float64) (BernoulliEstimate, error) {
	if trials <= 0 {
		return BernoulliEstimate{}, fmt.Errorf("stats: WilsonInterval with %d trials", trials)
	}
	if successes < 0 || successes > trials {
		return BernoulliEstimate{}, fmt.Errorf("stats: WilsonInterval with %d successes of %d trials", successes, trials)
	}
	if z <= 0 {
		return BernoulliEstimate{}, fmt.Errorf("stats: WilsonInterval with non-positive z=%v", z)
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z2/(4*n*n)) / denom
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return BernoulliEstimate{Successes: successes, Trials: trials, Lo: lo, Hi: hi}, nil
}

// Z95 and friends are conventional normal quantiles for Wilson intervals.
const (
	Z95  = 1.959964
	Z99  = 2.575829
	Z999 = 3.290527
)
