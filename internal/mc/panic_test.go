package mc

import (
	"errors"
	"fmt"
	"testing"

	"lvmajority/internal/faultpoint"
	"lvmajority/internal/rng"
	"lvmajority/internal/testutil"
)

// TestRunPanicIsolated: an engine panic in one replicate must come back
// as a structured *TrialPanicError carrying the trial index and seed —
// never crash the pool — for every worker count.
func TestRunPanicIsolated(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := Run(Options{Replicates: 200, Workers: workers, Seed: 99},
				func(rep int, src *rng.Source) (int, error) {
					if rep == 137 {
						panic("engine blew up")
					}
					return rep, nil
				})
			var tp *TrialPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("error %v is not a TrialPanicError", err)
			}
			if tp.Trial != 137 || tp.Seed != 99 {
				t.Errorf("TrialPanicError{Trial: %d, Seed: %d}, want trial 137 seed 99", tp.Trial, tp.Seed)
			}
			if tp.Value != "engine blew up" || tp.Stack == "" {
				t.Errorf("panic value %v / empty stack not captured", tp.Value)
			}
		})
	}
}

// TestRunPanicErrorValueUnwraps: a panic with an error value stays
// reachable through errors.Is across the recovery boundary.
func TestRunPanicErrorValueUnwraps(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	sentinel := errors.New("invariant violated")
	_, err := Run(Options{Replicates: 10, Workers: 2, Seed: 1},
		func(rep int, src *rng.Source) (int, error) {
			if rep == 5 {
				panic(sentinel)
			}
			return 0, nil
		})
	if !errors.Is(err, sentinel) {
		t.Errorf("error %v does not unwrap to the panic value", err)
	}
}

// TestWorkerSetupPanicIsolated: a panic during per-worker engine
// construction reports Trial == -1.
func TestWorkerSetupPanicIsolated(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	_, err := runPool(0, 100, 1, Options{Replicates: 100, Workers: 4, Seed: 7},
		func() (spanFunc, error) {
			panic("bad engine config")
		})
	var tp *TrialPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("error %v is not a TrialPanicError", err)
	}
	if tp.Trial != -1 {
		t.Errorf("Trial = %d, want -1 for setup panic", tp.Trial)
	}
}

// TestBlockPanicIsolated: the pool recovers a panicking BlockFunc
// into a TrialPanicError naming the block's first trial.
func TestBlockPanicIsolated(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := Blocks(64, func() (BlockFunc, error) {
				return func(seed uint64, lo, hi int, wins []bool) error {
					if lo == 128 {
						panic("lane plane corrupted")
					}
					return nil
				}, nil
			})(0, 256, Options{Replicates: 256, Workers: workers, Seed: 3})
			var tp *TrialPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("error %v is not a TrialPanicError", err)
			}
			if tp.Trial != 128 {
				t.Errorf("Trial = %d, want block start 128", tp.Trial)
			}
		})
	}
}

// TestChaosTrialStartPanic: a fault plan arming the trial-start site with
// a panic flows through the same recovery path as a real engine panic,
// and results after Disarm are untainted.
func TestChaosTrialStartPanic(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	faultpoint.Arm(faultpoint.NewPlan(faultpoint.Rule{
		Site: faultpoint.TrialStart, After: 10, Mode: faultpoint.ModePanic, Msg: "chaos",
	}))
	_, err := Run(Options{Replicates: 100, Workers: 4, Seed: 11},
		func(rep int, src *rng.Source) (int, error) { return rep, nil })
	faultpoint.Disarm()
	var tp *TrialPanicError
	if !errors.As(err, &tp) {
		t.Fatalf("injected panic surfaced as %v, not TrialPanicError", err)
	}
	if _, ok := tp.Value.(faultpoint.InjectedPanic); !ok {
		t.Errorf("panic value %#v is not the injected one", tp.Value)
	}

	// Disarmed rerun: clean, deterministic results.
	out, err := Run(Options{Replicates: 100, Workers: 4, Seed: 11},
		func(rep int, src *rng.Source) (int, error) { return rep, nil })
	if err != nil || len(out) != 100 {
		t.Fatalf("post-chaos run failed: %v", err)
	}
}

// TestChaosTrialStartError: an injected error at trial-start fails the
// run with the InjectedError intact through the pool's error path.
func TestChaosTrialStartError(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	faultpoint.Arm(faultpoint.NewPlan(faultpoint.Rule{
		Site: faultpoint.TrialStart, After: 3, Mode: faultpoint.ModeError, Msg: "chaos io",
	}))
	defer faultpoint.Disarm()
	_, err := Run(Options{Replicates: 50, Workers: 2, Seed: 5},
		func(rep int, src *rng.Source) (int, error) { return rep, nil })
	var inj *faultpoint.InjectedError
	if !errors.As(err, &inj) || inj.Site != faultpoint.TrialStart {
		t.Fatalf("error %v is not the injected trial-start error", err)
	}
}
