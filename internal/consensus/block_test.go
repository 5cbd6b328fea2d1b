package consensus

import (
	"sync/atomic"
	"testing"

	"lvmajority/internal/rng"
)

// fakeBlockTrialer is a protocol that can run either path: a scalar Trial
// and a block runner that replays the identical index-keyed streams. lanes
// controls whether it opts into block dispatch.
type fakeBlockTrialer struct {
	lanes       int
	blockBuilds atomic.Int32
	blockCalls  atomic.Int32
}

func (f *fakeBlockTrialer) Name() string { return "fake-block" }

func (f *fakeBlockTrialer) trialFrom(src *rng.Source, n, delta int) bool {
	// An arbitrary but stream-determined outcome with a delta-dependent
	// bias, so wrong stream keying or lane packing shows up as a
	// different estimate.
	return src.Float64() < 0.5+float64(delta)/float64(2*n)
}

func (f *fakeBlockTrialer) Trial(n, delta int, src *rng.Source) (bool, error) {
	return f.trialFrom(src, n, delta), nil
}

func (f *fakeBlockTrialer) TrialBlockLanes() int { return f.lanes }

func (f *fakeBlockTrialer) NewTrialBlock(n, delta int) (func(seed uint64, lo, hi int, wins []bool) error, error) {
	f.blockBuilds.Add(1)
	return func(seed uint64, lo, hi int, wins []bool) error {
		f.blockCalls.Add(1)
		var src rng.Source
		for rep := lo; rep < hi; rep++ {
			src.ReseedStream(seed, uint64(rep))
			wins[rep-lo] = f.trialFrom(&src, n, delta)
		}
		return nil
	}, nil
}

// TestBlockTrialerDispatch pins the capability protocol: a positive lane
// width routes the estimator through block runners, a zero width keeps it
// trial-at-a-time, and both paths return the identical estimate.
func TestBlockTrialerDispatch(t *testing.T) {
	opts := EstimateOptions{Trials: 2000, Workers: 4, Seed: 7}

	scalar := &fakeBlockTrialer{lanes: 0}
	want, err := EstimateWinProbability(scalar, 100, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scalar.blockBuilds.Load() != 0 {
		t.Fatalf("lanes=0 built %d block runners, want scalar path", scalar.blockBuilds.Load())
	}

	blocked := &fakeBlockTrialer{lanes: 128}
	got, err := EstimateWinProbability(blocked, 100, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.blockCalls.Load() == 0 {
		t.Fatal("lanes=128 never called the block runner")
	}
	if got != want {
		t.Fatalf("block estimate %+v, scalar %+v", got, want)
	}
}

// TestBlockTrialerEarlyStopDispatch covers the sequential estimator:
// early stopping must dispatch to blocks and agree with the scalar
// sequential run trial for trial.
func TestBlockTrialerEarlyStopDispatch(t *testing.T) {
	opts := EstimateOptions{Trials: 50000, Workers: 4, Seed: 7, EarlyStop: true, Target: 0.5}

	want, err := EstimateWinProbability(&fakeBlockTrialer{lanes: 0}, 100, 80, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Trials >= 50000 {
		t.Fatalf("scalar run did not stop early: %+v", want)
	}

	blocked := &fakeBlockTrialer{lanes: 64}
	got, err := EstimateWinProbability(blocked, 100, 80, opts)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.blockCalls.Load() == 0 {
		t.Fatal("early-stop estimator never called the block runner")
	}
	if got != want {
		t.Fatalf("block early stop %+v, scalar %+v", got, want)
	}
}
