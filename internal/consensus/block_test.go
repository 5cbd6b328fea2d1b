package consensus

import (
	"sync/atomic"
	"testing"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// LV estimates take the block path.
var _ BlockTrialer = LVProtocol{}

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

// scalarOnly hides a protocol's BlockTrialer capability, so the estimator
// runs it trial at a time.
type scalarOnly struct{ Protocol }

// TestLVCountWinsMatchesTrial checks that CountWins, which runs LV trials
// on the block engine, counts exactly the wins of serial Trial calls on
// the same streams, for windows starting at and past 0 and any worker
// count.
func TestLVCountWinsMatchesTrial(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), Ties: TieIsCoinFlip}
	const n, delta, seed = 64, 4, 11
	for _, w := range [][2]int{{0, 200}, {200, 457}} {
		want := 0
		for rep := w[0]; rep < w[1]; rep++ {
			won, err := p.Trial(n, delta, rng.NewStream(seed, uint64(rep)))
			if err != nil {
				t.Fatal(err)
			}
			if won {
				want++
			}
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := CountWins(p, n, delta, w[0], w[1], EstimateOptions{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("window %v, %d workers: CountWins = %d, serial Trial = %d", w, workers, got, want)
			}
		}
	}
}

// TestLVEarlyStopMatchesScalar checks that the sequential estimator
// returns the same estimate on the block path as trial at a time.
func TestLVEarlyStopMatchesScalar(t *testing.T) {
	p := LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)}
	opts := EstimateOptions{Trials: 5000, Workers: 2, Seed: 5, EarlyStop: true, Target: 0.9}
	want, err := EstimateWinProbability(scalarOnly{p}, 128, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Trials >= opts.Trials {
		t.Fatalf("scalar run did not stop early: %+v", want)
	}
	got, err := EstimateWinProbability(p, 128, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("block early stop %+v, scalar %+v", got, want)
	}
}
