package mc

import (
	"sync"
	"testing"

	"lvmajority/internal/progress"
	"lvmajority/internal/rng"
)

// coinTrial is a deterministic Bernoulli trial: success iff the replicate's
// own stream opens below p.
func coinTrial(p float64) func(rep int, src *rng.Source) (bool, error) {
	return func(rep int, src *rng.Source) (bool, error) {
		return src.Float64() < p, nil
	}
}

// collector is a concurrency-safe event sink for tests.
type collector struct {
	mu     sync.Mutex
	events []progress.Event
}

func (c *collector) hook() progress.Hook {
	return func(e progress.Event) {
		c.mu.Lock()
		c.events = append(c.events, e)
		c.mu.Unlock()
	}
}

func (c *collector) snapshot() []progress.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]progress.Event(nil), c.events...)
}

// TestEstimateUnchangedByProgressHook is the mc-level determinism contract:
// the estimate with a maximally chatty hook attached equals the estimate
// with no hook, replicate for replicate, on both the fixed and early-stop
// paths and for serial and parallel pools.
func TestEstimateUnchangedByProgressHook(t *testing.T) {
	for _, tc := range []struct {
		name      string
		workers   int
		earlyStop bool
	}{
		{"serial-fixed", 1, false},
		{"parallel-fixed", 8, false},
		{"serial-earlystop", 1, true},
		{"parallel-earlystop", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := BernoulliOptions{
				Options:   Options{Replicates: 4000, Workers: tc.workers, Seed: 42},
				EarlyStop: tc.earlyStop,
				Target:    0.5,
			}
			quiet, err := EstimateBernoulli(base, Trials(coinTrial(0.9)))
			if err != nil {
				t.Fatal(err)
			}
			var c collector
			chatty := base
			chatty.Progress = c.hook()
			loud, err := EstimateBernoulli(chatty, Trials(coinTrial(0.9)))
			if err != nil {
				t.Fatal(err)
			}
			if quiet != loud {
				t.Errorf("hook perturbed the estimate: %+v vs %+v", quiet, loud)
			}
			if len(c.snapshot()) == 0 {
				t.Error("chatty run emitted no events")
			}
		})
	}
}

// TestRunPoolEmitsTrialsSnapshots: the pool publishes snapshots whose Done
// never exceeds the budget and whose final snapshot completes it, and win
// counts never exceed trial counts. The second input repeats small windows
// of always-winning trials across many workers, the case in which a
// snapshot that read its trial and win counts separately could pair a
// trial count with a later trial's win.
func TestRunPoolEmitsTrialsSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		replicates, workers, repeats int
		p                            float64
	}{
		{"coin", 2000, 4, 1, 0.5},
		{"always-win-64x8", 64, 8, 3000, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for r := 0; r < tc.repeats; r++ {
				var c collector
				opts := BernoulliOptions{
					Options: Options{Replicates: tc.replicates, Workers: tc.workers, Seed: 7 + uint64(r), Progress: c.hook()},
				}
				if _, err := EstimateBernoulli(opts, Trials(coinTrial(tc.p))); err != nil {
					t.Fatal(err)
				}
				checkTrialsSnapshots(t, c.snapshot(), tc.replicates)
			}
		})
	}
}

func checkTrialsSnapshots(t *testing.T, events []progress.Event, total int) {
	t.Helper()
	sawFinalTrials, sawEstimate := false, false
	for _, e := range events {
		switch e.Kind {
		case progress.KindTrials:
			if e.Total != int64(total) {
				t.Fatalf("trials snapshot total %d, want %d", e.Total, total)
			}
			if e.Done < 1 || e.Done > e.Total {
				t.Fatalf("trials snapshot done %d outside (0, %d]", e.Done, e.Total)
			}
			if e.Wins > e.Done {
				t.Fatalf("snapshot wins %d > done %d", e.Wins, e.Done)
			}
			if e.Done == e.Total {
				sawFinalTrials = true
			}
		case progress.KindEstimate:
			sawEstimate = true
			if e.Estimate == nil {
				t.Fatal("estimate event with nil estimate")
			}
			if e.Estimate.Trials != total || e.Done != int64(total) {
				t.Fatalf("estimate event %+v, want %d trials", e, total)
			}
		}
	}
	if !sawFinalTrials {
		t.Error("no budget-completing trials snapshot")
	}
	if !sawEstimate {
		t.Error("no estimate event")
	}
}

// TestEarlyStopEmitsCumulativeWins: estimate events at batch boundaries
// carry cumulative (not per-batch) success counts.
func TestEarlyStopEmitsCumulativeWins(t *testing.T) {
	var c collector
	opts := BernoulliOptions{
		Options:   Options{Replicates: 10000, Workers: 2, Seed: 3, Progress: c.hook()},
		EarlyStop: true,
		Target:    0.5, // stays inside the interval at p=0.5: all batches run
	}
	est, err := EstimateBernoulli(opts, Trials(coinTrial(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	var lastEstimate *progress.Event
	var estimates int
	for _, e := range c.snapshot() {
		if e.Kind == progress.KindEstimate {
			estimates++
			cp := e
			lastEstimate = &cp
			if e.Done%1000 != 0 {
				t.Fatalf("estimate event at done=%d, want a batch boundary", e.Done)
			}
		}
	}
	if estimates != 10 {
		t.Errorf("saw %d estimate events, want one per batch (10)", estimates)
	}
	if lastEstimate == nil || lastEstimate.Estimate == nil {
		t.Fatal("no estimate events")
	}
	if *lastEstimate.Estimate != est {
		t.Errorf("final estimate event %+v does not match returned estimate %+v", lastEstimate.Estimate, est)
	}
	if lastEstimate.Wins != int64(est.Successes) {
		t.Errorf("final estimate event wins %d, want cumulative %d", lastEstimate.Wins, est.Successes)
	}
}

// TestBlocksUnchangedByProgressHook: the block estimate with a hook equals
// the trial-at-a-time estimate without one, and block snapshots carry
// coherent win counts. The second input runs narrow blocks of always-winning trials
// on many workers, many times over, where snapshots that read trial and
// win counts separately would report more wins than trials.
func TestBlocksUnchangedByProgressHook(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		lanes, replicates, workers, repeats int
		p                                   float64
	}{
		{"coin", 64, 3000, 4, 1, 0.7},
		{"always-win-1x64x8", 1, 64, 8, 3000, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blockWorker := func() (BlockFunc, error) {
				return func(seed uint64, lo, hi int, wins []bool) error {
					var src rng.Source
					for rep := lo; rep < hi; rep++ {
						src.ReseedStream(seed, uint64(rep))
						wins[rep-lo] = src.Float64() < tc.p
					}
					return nil
				}, nil
			}
			base := BernoulliOptions{Options: Options{Replicates: tc.replicates, Workers: tc.workers, Seed: 11}}
			quiet, err := EstimateBernoulli(base, Blocks(tc.lanes, blockWorker))
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := EstimateBernoulli(base, Trials(coinTrial(tc.p)))
			if err != nil {
				t.Fatal(err)
			}
			if quiet != scalar {
				t.Errorf("block estimate %+v diverges from scalar %+v", quiet, scalar)
			}
			for r := 0; r < tc.repeats; r++ {
				var c collector
				chatty := base
				chatty.Progress = c.hook()
				loud, err := EstimateBernoulli(chatty, Blocks(tc.lanes, blockWorker))
				if err != nil {
					t.Fatal(err)
				}
				if quiet != loud {
					t.Fatalf("hook perturbed the block estimate: %+v vs %+v", quiet, loud)
				}
				trials := 0
				for _, e := range c.snapshot() {
					if e.Kind != progress.KindTrials {
						continue
					}
					trials++
					if e.Wins > e.Done || e.Done > e.Total {
						t.Fatalf("incoherent block snapshot %+v", e)
					}
				}
				if trials == 0 {
					t.Fatal("block run emitted no trials snapshots")
				}
			}
		})
	}
}
