package mc

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// blockOfTrial wraps a scalar trial as a BlockFunc obeying the block
// contract: trial rep draws only from rng.NewStream(seed, rep).
func blockOfTrial(trial func(rep int, src *rng.Source) (bool, error)) BlockFunc {
	return func(seed uint64, lo, hi int, wins []bool) error {
		var src rng.Source
		for rep := lo; rep < hi; rep++ {
			src.ReseedStream(seed, uint64(rep))
			won, err := trial(rep, &src)
			if err != nil {
				return err
			}
			wins[rep-lo] = won
		}
		return nil
	}
}

func coin(p float64) func(rep int, src *rng.Source) (bool, error) {
	return func(_ int, src *rng.Source) (bool, error) {
		return src.Bernoulli(p), nil
	}
}

// TestBlocksMatchScalarEstimator pins the central equivalence: for a trial
// source obeying the index-keyed stream contract, the block estimator
// returns exactly the scalar estimator's result — same successes, same
// trials — for every block width, including widths that do not divide the
// replicate count (the last block of each batch is then partial) and
// widths above the count per worker (the window is then split evenly).
func TestBlocksMatchScalarEstimator(t *testing.T) {
	opts := BernoulliOptions{Options: Options{Replicates: 5000, Workers: 4, Seed: 11}}
	want, err := EstimateBernoulli(opts, Trials(coin(0.42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 7, 64, 128, 999, 5000, 9000} {
		got, err := EstimateBernoulli(opts, Blocks(lanes, func() (BlockFunc, error) {
			return blockOfTrial(coin(0.42)), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("lanes=%d: %+v, scalar %+v", lanes, got, want)
		}
	}
}

func TestBlocksWorkerCountInvariance(t *testing.T) {
	estimate := func(workers int) stats.BernoulliEstimate {
		est, err := EstimateBernoulli(BernoulliOptions{
			Options: Options{Replicates: 3000, Workers: workers, Seed: 9},
		}, Blocks(128, func() (BlockFunc, error) {
			return blockOfTrial(coin(0.42)), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	want := estimate(1)
	for _, workers := range []int{2, 8} {
		if got := estimate(workers); got != want {
			t.Fatalf("workers=%d: %+v, workers=1: %+v", workers, got, want)
		}
	}
}

// TestBlocksEarlyStopMatchesScalar checks that early stopping inspects the
// same batch boundaries as the scalar path: the block run must terminate
// with the identical trial count and estimate, never running past the
// scalar stopping point (the batches are subdivided into blocks, so no
// block extends beyond the batch that settles the comparison).
func TestBlocksEarlyStopMatchesScalar(t *testing.T) {
	opts := BernoulliOptions{
		Options:   Options{Replicates: 100000, Seed: 3, Workers: 4},
		EarlyStop: true,
		Target:    0.5,
	}
	want, err := EstimateBernoulli(opts, Trials(coin(0.95)))
	if err != nil {
		t.Fatal(err)
	}
	if want.Trials >= 100000 {
		t.Fatalf("scalar run did not stop early: %+v", want)
	}
	var mu sync.Mutex
	maxRep := -1
	trialTracked := func(rep int, src *rng.Source) (bool, error) {
		mu.Lock()
		if rep > maxRep {
			maxRep = rep
		}
		mu.Unlock()
		return src.Bernoulli(0.95), nil
	}
	got, err := EstimateBernoulli(opts, Blocks(64, func() (BlockFunc, error) {
		return blockOfTrial(trialTracked), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("block early stop %+v, scalar %+v", got, want)
	}
	if maxRep >= want.Trials {
		t.Fatalf("block run executed trial %d beyond the scalar stopping point %d", maxRep, want.Trials)
	}
}

// TestBlocksPartialLastBlock pins the heuristic directly: every call the
// pool makes is full-width except the final one, which gets the remainder.
func TestBlocksPartialLastBlock(t *testing.T) {
	var mu sync.Mutex
	var widths []int
	_, err := EstimateBernoulli(BernoulliOptions{
		Options: Options{Replicates: 1000, Workers: 1, Seed: 1},
	}, Blocks(300, func() (BlockFunc, error) {
		return func(seed uint64, lo, hi int, wins []bool) error {
			mu.Lock()
			widths = append(widths, hi-lo)
			mu.Unlock()
			return blockOfTrial(coin(0.5))(seed, lo, hi, wins)
		}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(widths) != 4 || widths[0] != 300 || widths[1] != 300 || widths[2] != 300 || widths[3] != 100 {
		t.Fatalf("block widths %v, want [300 300 300 100]", widths)
	}
}

// TestBlocksSplitNarrowWindowEvenly pins the split of a window narrower
// than lanes times the worker count: a 200-trial early-stop batch on
// 128-lane blocks runs as one block per worker of equal width, not as a
// 128-trial and a 72-trial block that would leave the other workers idle.
func TestBlocksSplitNarrowWindowEvenly(t *testing.T) {
	for _, tc := range []struct{ workers, blocks, width int }{{2, 2, 100}, {8, 8, 25}} {
		var mu sync.Mutex
		var widths []int
		count := Blocks(128, func() (BlockFunc, error) {
			return func(seed uint64, lo, hi int, wins []bool) error {
				mu.Lock()
				widths = append(widths, hi-lo)
				mu.Unlock()
				return blockOfTrial(coin(0.5))(seed, lo, hi, wins)
			}, nil
		})
		if _, err := count(0, 200, Options{Workers: tc.workers, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if len(widths) != tc.blocks {
			t.Fatalf("workers=%d: block widths %v, want %d blocks of %d", tc.workers, widths, tc.blocks, tc.width)
		}
		for _, w := range widths {
			if w != tc.width {
				t.Fatalf("workers=%d: block widths %v, want %d blocks of %d", tc.workers, widths, tc.blocks, tc.width)
			}
		}
	}
}

func TestBlocksPropagateErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := EstimateBernoulli(BernoulliOptions{
		Options: Options{Replicates: 1000, Workers: 4, Seed: 1},
	}, Blocks(64, func() (BlockFunc, error) {
		return func(seed uint64, lo, hi int, wins []bool) error {
			if lo >= 512 {
				return boom
			}
			return blockOfTrial(coin(0.5))(seed, lo, hi, wins)
		}, nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	if _, err := EstimateBernoulli(BernoulliOptions{
		Options: Options{Replicates: 10},
	}, Blocks(0, func() (BlockFunc, error) { return nil, nil })); err == nil || !strings.Contains(err.Error(), "block width") {
		t.Fatalf("lanes=0 accepted: %v", err)
	}
}

func TestBlocksInterrupt(t *testing.T) {
	stop := errors.New("stop")
	calls := 0
	_, err := EstimateBernoulli(BernoulliOptions{
		Options: Options{Replicates: 1000, Workers: 1, Seed: 1, Interrupt: func() error {
			calls++
			if calls > 2 {
				return stop
			}
			return nil
		}},
	}, Blocks(100, func() (BlockFunc, error) {
		return blockOfTrial(coin(0.5)), nil
	}))
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want stop", err)
	}
}
