package mc

import (
	"errors"
	"math"
	"testing"

	"lvmajority/internal/crn"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// TestRunWorkerCountInvariance is the core determinism contract: the
// result slice must be byte-identical for every worker count, because
// replicate streams are keyed by index, not by worker.
func TestRunWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []float64 {
		out, err := Run(Options{Replicates: 500, Workers: workers, Seed: 42},
			func(rep int, src *rng.Source) (float64, error) {
				// Consume a replicate-dependent amount of randomness so
				// any stream sharing would misalign the outputs.
				v := 0.0
				for i := 0; i <= rep%7; i++ {
					v = src.Float64()
				}
				return v, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8, 64} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: replicate %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Options{Replicates: 100, Workers: 4, Seed: 1},
		func(rep int, _ *rng.Source) (int, error) {
			if rep == 37 {
				return 0, boom
			}
			return rep, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunDefaults(t *testing.T) {
	out, err := Run(Options{}, func(rep int, _ *rng.Source) (int, error) { return rep, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("default replicate count = %d, want 1000", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("replicate %d stored %d", i, v)
		}
	}
}

// TestRunEngineMatchesFreshEngines verifies that reusing one engine per
// worker through Reset gives exactly the results of constructing a fresh
// engine per replicate — the reuse is purely an allocation optimization.
func TestRunEngineMatchesFreshEngines(t *testing.T) {
	net, err := protocols.FromNeutral(lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)).Network()
	if err != nil {
		t.Fatal(err)
	}
	initial := []int{20, 12}
	opts := Options{Replicates: 300, Workers: 4, Seed: 7}

	type outcome struct {
		steps  int
		winner int
	}
	runOne := func(e crn.Engine) (outcome, error) {
		res, err := crn.Run(e, lvConsensus, 0, 0)
		if err != nil {
			return outcome{}, err
		}
		st := e.StateView()
		w := -1
		switch {
		case st[0] > 0 && st[1] == 0:
			w = 0
		case st[1] > 0 && st[0] == 0:
			w = 1
		}
		return outcome{steps: res.Steps, winner: w}, nil
	}

	reused, err := RunEngine(opts,
		func() (crn.Engine, error) { return crn.NewEngine(net, initial, crn.EngineDirect, false, rng.New(0)) },
		func(_ int, e crn.Engine, src *rng.Source) (outcome, error) {
			if err := e.Reset(initial, src); err != nil {
				return outcome{}, err
			}
			return runOne(e)
		})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(opts, func(_ int, src *rng.Source) (outcome, error) {
		e, err := crn.NewEngine(net, initial, crn.EngineDirect, false, src)
		if err != nil {
			return outcome{}, err
		}
		return runOne(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reused {
		if reused[i] != fresh[i] {
			t.Fatalf("replicate %d: reused %+v vs fresh %+v", i, reused[i], fresh[i])
		}
	}
}

func TestEstimateBernoulliAccuracy(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.93} {
		est, err := EstimateBernoulli(BernoulliOptions{
			Options: Options{Replicates: 20000, Workers: 8, Seed: 5},
		}, Trials(func(_ int, src *rng.Source) (bool, error) {
			return src.Bernoulli(p), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.P()-p) > 0.015 {
			t.Errorf("estimate for p=%v: %v", p, est)
		}
		if est.Lo > p || est.Hi < p {
			t.Errorf("CI %v does not contain %v", est, p)
		}
	}
}

func TestEstimateBernoulliWorkerInvariance(t *testing.T) {
	estimate := func(workers int) stats.BernoulliEstimate {
		est, err := EstimateBernoulli(BernoulliOptions{
			Options: Options{Replicates: 5000, Workers: workers, Seed: 9},
		}, Trials(func(_ int, src *rng.Source) (bool, error) {
			return src.Bernoulli(0.42), nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	want := estimate(1)
	for _, workers := range []int{2, 8} {
		if got := estimate(workers); got.Successes != want.Successes {
			t.Fatalf("workers=%d: %d successes, workers=1: %d", workers, got.Successes, want.Successes)
		}
	}
}

func TestEstimateBernoulliEarlyStop(t *testing.T) {
	est, err := EstimateBernoulli(BernoulliOptions{
		Options:   Options{Replicates: 100000, Seed: 3},
		EarlyStop: true,
		Target:    0.5,
	}, Trials(func(_ int, src *rng.Source) (bool, error) {
		return src.Bernoulli(0.95), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if est.Trials >= 100000 {
		t.Errorf("no early stop on a clear case: %v", est)
	}
	if est.Lo <= 0.5 {
		t.Errorf("estimate %v does not exclude the target", est)
	}

	if _, err := EstimateBernoulli(BernoulliOptions{
		Options:   Options{Replicates: 100},
		EarlyStop: true,
	}, Trials(func(_ int, _ *rng.Source) (bool, error) { return true, nil })); err == nil {
		t.Error("early stop without target accepted")
	}
}
