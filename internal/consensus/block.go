package consensus

import (
	"fmt"

	"lvmajority/internal/mc"
	"lvmajority/internal/rng"
)

// BlockTrialer is the optional capability of protocols whose engines can
// advance many trials per call — LVProtocol on the lockstep lv.Block
// engine, and the lockstep population kernel. When a Protocol also
// implements BlockTrialer and TrialBlockLanes returns a positive width,
// CountWins runs it in blocks (mc.Blocks): each worker builds one block
// runner via NewTrialBlock and receives contiguous trial ranges of that
// width. Trial rep of a block must draw only from
// rng.NewStream(seed, rep) — the same stream the scalar Trial would use —
// so a protocol's estimate is identical whether or not it opts in.
type BlockTrialer interface {
	Protocol
	// TrialBlockLanes returns the preferred trials-per-call width, or 0
	// when the protocol's current configuration wants trial-at-a-time.
	TrialBlockLanes() int
	// NewTrialBlock validates the (n, delta) configuration and returns a
	// stateful single-goroutine block runner (see mc.BlockFunc).
	NewTrialBlock(n, delta int) (func(seed uint64, lo, hi int, wins []bool) error, error)
}

// CountWins runs the protocol's trials [lo, hi) and returns the number of
// consensus wins in that window, running it in blocks when the protocol
// opts in via BlockTrialer. It is the window counter behind every
// local estimate, so a window counted here agrees trial-for-trial with the
// window an estimator would run. Trial rep draws only from
// rng.NewStream(opts.Seed, rep): the count is a pure function of (protocol
// behaviour, n, delta, seed, window), independent of worker count and of
// which process executes it. This is the unit of work a fabric worker
// executes for the coordinator. opts.Trials is only the progress total;
// Z, EarlyStop and Target are ignored.
func CountWins(p Protocol, n, delta, lo, hi int, opts EstimateOptions) (int, error) {
	if p == nil {
		return 0, fmt.Errorf("consensus: nil protocol")
	}
	if _, _, err := SplitInitial(n, delta); err != nil {
		return 0, err
	}
	mopts := mc.Options{Replicates: opts.Trials, Workers: opts.Workers, Seed: opts.Seed, Interrupt: opts.Interrupt, Progress: opts.Progress}
	if bt, ok := p.(BlockTrialer); ok {
		if lanes := bt.TrialBlockLanes(); lanes > 0 {
			wins, err := mc.Blocks(lanes, func() (mc.BlockFunc, error) {
				return bt.NewTrialBlock(n, delta)
			})(lo, hi, mopts)
			if err != nil {
				return 0, fmt.Errorf("consensus: trial block failed: %w", err)
			}
			return wins, nil
		}
	}
	wins, err := mc.Trials(func(_ int, src *rng.Source) (bool, error) {
		return p.Trial(n, delta, src)
	})(lo, hi, mopts)
	if err != nil {
		return 0, fmt.Errorf("consensus: trial failed: %w", err)
	}
	return wins, nil
}
