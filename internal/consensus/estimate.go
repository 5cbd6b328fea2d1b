package consensus

import (
	"fmt"

	"lvmajority/internal/mc"
	"lvmajority/internal/progress"
	"lvmajority/internal/stats"
)

// EstimateOptions configures EstimateWinProbability and Estimate.
type EstimateOptions struct {
	// Trials is the number of Monte-Carlo trials (default 1000).
	Trials int
	// Workers is the number of parallel workers (default GOMAXPROCS). It
	// affects scheduling only: every trial draws from its own stream keyed
	// by the trial index, so the estimate is bit-identical for every
	// worker count.
	Workers int
	// Z is the normal quantile of the Wilson interval (default stats.Z99).
	Z float64
	// Seed determines every random stream; the same options always
	// reproduce the same estimate bit-for-bit.
	Seed uint64
	// Interrupt, when non-nil, is polled between trials; a non-nil return
	// aborts the estimate with that error (see mc.Options.Interrupt). It
	// never affects results while it returns nil.
	Interrupt func() error
	// Progress, when non-nil, receives trial and estimate snapshots from
	// the underlying pool (see mc.Options.Progress). Observation-only:
	// attaching a hook never changes the estimate.
	Progress progress.Hook
	// EarlyStop samples in batches and stops as soon as the Wilson
	// interval excludes Target on either side — typically a large saving
	// at gaps far from the threshold, where a few hundred trials already
	// settle the comparison. The estimate then uses however many trials
	// were actually run (at most Trials). Batch boundaries are fixed and
	// streams are keyed by the trial index, so the result is still
	// deterministic. Because the interval is inspected repeatedly, its
	// coverage is nominally optimistic (sequential testing); threshold
	// searches only need the accept/reject side, for which the
	// repeated-look optimism is acceptable and symmetric across probed
	// gaps, while callers that need calibrated intervals leave it off.
	EarlyStop bool
	// Target is the probability in (0, 1) the early-stop comparison tests
	// against; required when EarlyStop is set.
	Target float64
}

func (o *EstimateOptions) normalize() {
	if o.Trials <= 0 {
		o.Trials = 1000
	}
	if o.Z <= 0 {
		o.Z = stats.Z99
	}
}

// EstimateWinProbability estimates ρ — the probability that the protocol
// reaches majority consensus — for total population n and initial gap delta,
// running trials on the shared mc worker pool through CountWins. The result
// is deterministic in (protocol behaviour, Trials, Seed): per-trial streams
// are keyed by the trial index, so neither scheduling nor the worker count
// can change the outcome.
func EstimateWinProbability(p Protocol, n, delta int, opts EstimateOptions) (stats.BernoulliEstimate, error) {
	return Estimate(func(lo, hi int, mopts mc.Options) (int, error) {
		return CountWins(p, n, delta, lo, hi, EstimateOptions{
			Trials: mopts.Replicates, Workers: mopts.Workers, Seed: mopts.Seed,
			Interrupt: mopts.Interrupt, Progress: mopts.Progress,
		})
	}, p, n, delta, opts)
}

// Estimate runs the estimator control loop — defaults, the fixed-size or
// early-stopping batches, the Wilson intervals — over count, which must
// count p's wins at (n, delta) in any trial window [lo, hi) with trial rep
// drawing only from rng.NewStream(seed, rep). EstimateWinProbability passes
// the in-process CountWins; the distributed fabric passes a counter that
// shards windows across its workers, so its estimates are byte-identical
// to local ones for any worker count and any shard assignment.
func Estimate(count mc.Counter, p Protocol, n, delta int, opts EstimateOptions) (stats.BernoulliEstimate, error) {
	if p == nil {
		return stats.BernoulliEstimate{}, fmt.Errorf("consensus: nil protocol")
	}
	opts.normalize()
	// Validate the configuration once, up front, so workers cannot race
	// on the same configuration error.
	if _, _, err := SplitInitial(n, delta); err != nil {
		return stats.BernoulliEstimate{}, err
	}
	return mc.EstimateBernoulli(mc.BernoulliOptions{
		Options:   mc.Options{Replicates: opts.Trials, Workers: opts.Workers, Seed: opts.Seed, Interrupt: opts.Interrupt, Progress: opts.Progress},
		Z:         opts.Z,
		EarlyStop: opts.EarlyStop,
		Target:    opts.Target,
	}, count)
}
