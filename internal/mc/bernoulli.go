package mc

import (
	"fmt"

	"lvmajority/internal/progress"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// BernoulliOptions configure EstimateBernoulli.
type BernoulliOptions struct {
	Options
	// Z is the normal quantile of the Wilson interval (default stats.Z99).
	Z float64
	// EarlyStop enables sequential estimation: trials run in batches of
	// Replicates/10 (at least 200) and the estimator returns as soon as
	// the Wilson interval excludes Target on either side — often an order
	// of magnitude fewer trials when the true probability is far from
	// Target. Because the interval is inspected repeatedly, its coverage
	// is nominally optimistic (sequential testing); callers that need
	// calibrated intervals should leave EarlyStop off.
	EarlyStop bool
	// Target is the probability the early-stop comparison tests against.
	// Required when EarlyStop is set.
	Target float64
}

// minEarlyStopBatch is the smallest early-stop batch; batches are otherwise
// a tenth of the trial budget.
const minEarlyStopBatch = 200

// Counter counts the successes among trials [lo, hi) of a run: trial rep
// must draw its randomness only from rng.NewStream(opts.Seed, rep), so a
// window's count is a pure function of the window and the seed —
// independent of worker count, of how the window is split, and of which
// process runs it. opts.Replicates is only the progress total. Trials and
// Blocks build the in-process counters; the distributed fabric supplies one
// that shards windows across a worker fleet.
type Counter func(lo, hi int, opts Options) (int, error)

// Trials returns the Counter that runs trial one index at a time on the
// worker pool.
func Trials(trial func(rep int, src *rng.Source) (bool, error)) Counter {
	return func(lo, hi int, opts Options) (int, error) {
		return runPool(lo, hi, 1, opts, func() (spanFunc, error) {
			return trialSpan(opts.Seed, trial), nil
		})
	}
}

// BlockFunc advances one whole block of Bernoulli trials: indices [lo, hi)
// of the run, writing trial rep's outcome to wins[rep-lo]. Trial rep must
// draw its randomness only from rng.NewStream(seed, rep) — the same
// index-keyed stream contract as a trial-at-a-time source — so block
// boundaries and worker counts can never change results. A BlockFunc may be
// stateful (the lockstep engines own their lane planes) and is never called
// concurrently; the pool builds one per worker via newWorker.
type BlockFunc func(seed uint64, lo, hi int, wins []bool) error

// Blocks returns the Counter for trial sources that advance whole blocks of
// trials per call, such as the lockstep population kernel. lanes is the
// preferred block width: the pool hands each worker contiguous index ranges
// of size min(lanes, remaining), so every block of a window but the last is
// full-width. Under early stopping each batch is one window, so a batch
// costs at most ⌈size/lanes⌉ block calls and no block runs past the batch
// that settles the comparison.
func Blocks(lanes int, newWorker func() (BlockFunc, error)) Counter {
	return func(lo, hi int, opts Options) (int, error) {
		if lanes <= 0 {
			return 0, fmt.Errorf("mc: non-positive block width %d", lanes)
		}
		return runPool(lo, hi, lanes, opts, func() (spanFunc, error) {
			fn, err := newWorker()
			if err != nil {
				return nil, err
			}
			buf := make([]bool, lanes)
			return func(lo, hi int) (int, error) {
				// Zeroed per block, so a BlockFunc that marks only its
				// wins still counts right.
				wins := buf[:hi-lo]
				clear(wins)
				if err := fn(opts.Seed, lo, hi, wins); err != nil {
					return 0, err
				}
				won := 0
				for _, w := range wins {
					if w {
						won++
					}
				}
				return won, nil
			}, nil
		})
	}
}

// EstimateBernoulli estimates the success probability of the trials count
// runs, over opts.Replicates trials, with a Wilson confidence interval. It
// depends on the trial source only through count, so the estimate — and,
// with EarlyStop, the batch boundaries the sequential path inspects — is
// bit-identical for every worker count and every Counter that honours the
// index-keyed stream contract.
func EstimateBernoulli(opts BernoulliOptions, count Counter) (stats.BernoulliEstimate, error) {
	opts.Options = opts.Options.normalized()
	if opts.Z <= 0 {
		opts.Z = stats.Z99
	}
	if !opts.EarlyStop {
		wins, err := count(0, opts.Replicates, opts.Options)
		if err != nil {
			return stats.BernoulliEstimate{}, err
		}
		est, err := stats.WilsonInterval(wins, opts.Replicates, opts.Z)
		if err == nil {
			emitEstimate(opts.Progress, est, opts.Replicates, opts.Replicates)
		}
		return est, err
	}

	if opts.Target <= 0 || opts.Target >= 1 {
		return stats.BernoulliEstimate{}, fmt.Errorf("mc: early-stop target %v outside (0, 1)", opts.Target)
	}
	batch := min(max(opts.Replicates/10, minEarlyStopBatch), opts.Replicates)
	successes, trials := 0, 0
	for trials < opts.Replicates {
		size := min(batch, opts.Replicates-trials)
		batchOpts := opts.Options
		if h := opts.Progress; h != nil && successes > 0 {
			// Trial snapshots inside this batch carry only the batch's own
			// win counter; re-base them so observers see cumulative wins.
			base := int64(successes)
			batchOpts.Progress = func(e progress.Event) {
				if e.Kind == progress.KindTrials {
					e.Wins += base
				}
				h(e)
			}
		}
		wins, err := count(trials, trials+size, batchOpts)
		if err != nil {
			return stats.BernoulliEstimate{}, err
		}
		successes += wins
		trials += size

		combined, err := stats.WilsonInterval(successes, trials, opts.Z)
		if err != nil {
			return stats.BernoulliEstimate{}, err
		}
		emitEstimate(opts.Progress, combined, trials, opts.Replicates)
		if combined.Lo > opts.Target || combined.Hi < opts.Target {
			return combined, nil
		}
	}
	return stats.WilsonInterval(successes, trials, opts.Z)
}

// emitEstimate publishes one running-estimate snapshot at a batch boundary.
func emitEstimate(h progress.Hook, est stats.BernoulliEstimate, done, total int) {
	if h == nil {
		return
	}
	e := est // copy: the Event must not alias the estimator's value
	h(progress.Event{
		Kind:     progress.KindEstimate,
		Done:     int64(done),
		Total:    int64(total),
		Wins:     int64(est.Successes),
		Estimate: &e,
	})
}
