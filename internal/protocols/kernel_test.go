package protocols

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/crn"
	"lvmajority/internal/exact"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// newVoterProtocol returns the 2-state voter model: the initiator converts
// the responder. Its gap performs a ±1 unbiased random walk on effective
// interactions, so the exact majority-win probability from (a, b) is
// a/(a+b) — a sampling-free oracle for the kernels.
func newVoterProtocol() *PopulationProtocol {
	return &PopulationProtocol{
		ProtocolName:  "2-state voter",
		NumStates:     2,
		Rule:          func(initiator, _ int) (int, int) { return initiator, initiator },
		MajorityState: 0,
		MinorityState: 1,
		Done: func(counts []int) (bool, int) {
			switch {
			case counts[1] == 0:
				return true, 0
			case counts[0] == 0:
				return true, 1
			default:
				return false, -1
			}
		},
		// Voter needs Θ(n²) effective interactions.
		MaxInteractionsFor: func(n int) int { return 400 * n * n },
	}
}

// perEventTrial is the per-event replay oracle: it simulates every
// interaction individually on the compiled table. For a given random
// stream it is byte-identical to the historical event loop: one Intn(n)
// draw for the initiator and one Intn(n−1) draw for the responder per
// interaction, null or not. Done is only re-evaluated after an interaction
// actually changed a count — it is a pure function of the counts, so
// skipping it on null interactions cannot change the stopping time. It
// samples the same process as Trial, on a different stream consumption,
// so the law tests compare the two and BenchmarkPopulationKernel prices
// it as its perevent row.
func perEventTrial(p *PopulationProtocol, n, delta int, src *rng.Source) (bool, int, error) {
	tab, err := p.compile()
	if err != nil {
		return false, 0, err
	}
	b := (n - delta) / 2
	counts := make([]int, p.NumStates)
	counts[p.MajorityState] += n - b
	counts[p.MinorityState] += b

	maxInteractions := p.maxInteractions(n)
	changed := true
	for step := 0; step < maxInteractions; step++ {
		if changed {
			if done, winner := p.Done(counts); done {
				return winner == 0, step, nil
			}
			changed = false
		}
		initiator := sampleState(counts, n, src)
		// The responder is a distinct agent: discount the initiator.
		counts[initiator]--
		responder := sampleState(counts, n-1, src)
		counts[initiator]++

		k := initiator*tab.states + responder
		if tab.null[k] {
			continue
		}
		counts[initiator]--
		counts[responder]--
		counts[tab.ni[k]]++
		counts[tab.nr[k]]++
		changed = true
	}
	// Did not stabilize within the budget: count as failure.
	return false, maxInteractions, nil
}

// sampleState picks a state index with probability counts[s]/total.
func sampleState(counts []int, total int, src *rng.Source) int {
	u := src.Intn(total)
	acc := 0
	for s, c := range counts {
		acc += c
		if u < acc {
			return s
		}
	}
	// Unreachable when total == sum(counts); guard for safety.
	return len(counts) - 1
}

// perEvent is a protocol whose trials run on the per-event oracle. It
// wraps the protocol rather than embedding it, so that it never offers
// the block engine to the estimator.
type perEvent struct{ p *PopulationProtocol }

func (w perEvent) Name() string { return w.p.Name() }

func (w perEvent) Trial(n, delta int, src *rng.Source) (bool, error) {
	won, _, err := perEventTrial(w.p, n, delta, src)
	return won, err
}

// perTrial is a protocol whose trials run one at a time on Trial, the
// batch loop, wrapped like perEvent.
type perTrial struct{ p *PopulationProtocol }

func (w perTrial) Name() string { return w.p.Name() }

func (w perTrial) Trial(n, delta int, src *rng.Source) (bool, error) { return w.p.Trial(n, delta, src) }

// historicalTrial replays the per-event Trial loop exactly as it was before
// the compiled table: re-validate per trial, call Rule and range-check its
// outputs per interaction, evaluate Done on every tick. It is the
// byte-identity oracle for perEventTrial and the "old" side of
// BenchmarkPopulationKernel.
func historicalTrial(p *PopulationProtocol, n, delta int, src *rng.Source) (bool, int, error) {
	if err := p.validate(); err != nil {
		return false, 0, err
	}
	b := (n - delta) / 2
	a := n - b
	counts := make([]int, p.NumStates)
	counts[p.MajorityState] += a
	counts[p.MinorityState] += b

	maxInteractions := 0
	if p.MaxInteractionsFor != nil {
		maxInteractions = p.MaxInteractionsFor(n)
	}
	if maxInteractions <= 0 {
		logN := 1
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		maxInteractions = 400 * n * logN
	}

	for step := 0; step < maxInteractions; step++ {
		if done, winner := p.Done(counts); done {
			return winner == 0, step, nil
		}
		initiator := sampleState(counts, n, src)
		counts[initiator]--
		responder := sampleState(counts, n-1, src)
		counts[initiator]++

		ni, nr := p.Rule(initiator, responder)
		if ni < 0 || ni >= p.NumStates || nr < 0 || nr >= p.NumStates {
			return false, step, fmt.Errorf("rule produced out-of-range states (%d, %d)", ni, nr)
		}
		counts[initiator]--
		counts[responder]--
		counts[ni]++
		counts[nr]++
	}
	return false, maxInteractions, nil
}

// referenceTrial is historicalTrial with test-fatal error handling.
func referenceTrial(t *testing.T, p *PopulationProtocol, n, delta int, src *rng.Source) bool {
	t.Helper()
	won, _, err := historicalTrial(p, n, delta, src)
	if err != nil {
		t.Fatal(err)
	}
	return won
}

// TestPerEventKernelByteIdenticalToSeed drives the per-event oracle and
// the historical event loop from identical streams: the compiled
// transition table, hoisted validation, and lazy Done evaluation must be
// invisible at the bit level.
func TestPerEventKernelByteIdenticalToSeed(t *testing.T) {
	makers := []func() *PopulationProtocol{NewThreeStateAM, NewFourStateExact, NewTernarySignaling, newVoterProtocol}
	for _, mk := range makers {
		p := mk()
		oracle := mk()
		for _, tc := range []struct{ n, delta int }{{16, 2}, {40, 4}, {61, 3}, {50, 0}} {
			for seed := uint64(1); seed <= 40; seed++ {
				got, _, err := perEventTrial(p, tc.n, tc.delta, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				want := referenceTrial(t, oracle, tc.n, tc.delta, rng.New(seed))
				if got != want {
					t.Fatalf("%s n=%d delta=%d seed=%d: per-event kernel %v, historical loop %v",
						p.Name(), tc.n, tc.delta, seed, got, want)
				}
			}
		}
	}
}

// TestTrialValidatesOnce is the regression test for the validate-once
// satellite: after the first Trial, further Trials (including concurrent
// ones) must do zero validation/compilation work.
func TestTrialValidatesOnce(t *testing.T) {
	p := NewThreeStateAM()
	for i := 0; i < 10; i++ {
		if _, err := p.Trial(20, 2, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.compileCalls != 1 {
		t.Fatalf("10 sequential Trials ran the compile step %d times, want 1", p.compileCalls)
	}

	q := NewFourStateExact()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := q.Trial(20, 2, rng.New(uint64(100*w+i))); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if q.compileCalls != 1 {
		t.Fatalf("concurrent Trials ran the compile step %d times, want 1", q.compileCalls)
	}

	// Compile failures must also be sticky.
	bad := &PopulationProtocol{ProtocolName: "bad", NumStates: 1}
	for i := 0; i < 3; i++ {
		if _, err := bad.Trial(10, 2, rng.New(1)); err == nil {
			t.Fatal("one-state protocol accepted")
		}
	}
	if bad.compileCalls != 1 {
		t.Fatalf("failing compile ran %d times, want 1", bad.compileCalls)
	}
}

// TestBatchKernelMatchesClosedFormVoter checks the batch kernel against
// the exact voter-model win probability a/(a+b): the geometric null
// skipping and conditional pair sampling must leave the absorption law
// untouched.
func TestBatchKernelMatchesClosedFormVoter(t *testing.T) {
	for _, tc := range []struct{ n, delta int }{{30, 10}, {24, 4}, {21, 7}} {
		p := newVoterProtocol()
		est, err := consensus.EstimateWinProbability(p, tc.n, tc.delta, consensus.EstimateOptions{
			Trials: 6000,
			Seed:   101,
			Z:      stats.Z999,
		})
		if err != nil {
			t.Fatal(err)
		}
		a := (tc.n + tc.delta) / 2
		want := float64(a) / float64(tc.n)
		if want < est.Lo || want > est.Hi {
			t.Errorf("voter n=%d delta=%d: batch-kernel estimate [%v, %v] excludes exact %v",
				tc.n, tc.delta, est.Lo, est.Hi, want)
		}
	}
}

// TestBatchKernelMatchesExactNetworkOracle cross-checks the batch kernel
// against the internal/exact grid solver: conditioned on effective
// interactions, the voter protocol's count chain is exactly the jump chain
// of the two-species CRN {X+Y → 2X, Y+X → 2Y} at equal rates, whose
// absorption probabilities SolveNetwork computes without sampling.
func TestBatchKernelMatchesExactNetworkOracle(t *testing.T) {
	net, err := crn.NewNetwork("X", "Y")
	if err != nil {
		t.Fatal(err)
	}
	net.MustAddReaction(crn.Reaction{Reactants: []crn.Species{0, 1}, Products: []crn.Species{0, 0}, Rate: 1})
	net.MustAddReaction(crn.Reaction{Reactants: []crn.Species{1, 0}, Products: []crn.Species{1, 1}, Rate: 1})
	sol, err := exact.SolveNetwork(net, exact.Options{Max: 40})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ n, delta int }{{30, 10}, {20, 2}} {
		b := (tc.n - tc.delta) / 2
		a := tc.n - b
		want, err := sol.Rho(a, b)
		if err != nil {
			t.Fatal(err)
		}
		p := newVoterProtocol()
		est, err := consensus.EstimateWinProbability(p, tc.n, tc.delta, consensus.EstimateOptions{
			Trials: 6000,
			Seed:   7,
			Z:      stats.Z999,
		})
		if err != nil {
			t.Fatal(err)
		}
		if want < est.Lo || want > est.Hi {
			t.Errorf("voter n=%d delta=%d: batch estimate [%v, %v] excludes exact grid solution %v",
				tc.n, tc.delta, est.Lo, est.Hi, want)
		}
	}
}

// TestKernelsDistributionallyEquivalent compares the per-event oracle's
// and the batch loop's win frequencies on the repository's real protocols
// with a two-proportion z-test: the two consume the random stream
// differently, so their trials differ, but their laws may not.
func TestKernelsDistributionallyEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("distributional comparison is slow")
	}
	const trials = 4000
	makers := []func() *PopulationProtocol{NewThreeStateAM, NewFourStateExact, NewTernarySignaling}
	for _, mk := range makers {
		for _, tc := range []struct{ n, delta int }{{60, 2}, {60, 8}} {
			wins := [2]int{}
			for k, p := range []consensus.Protocol{perEvent{mk()}, perTrial{mk()}} {
				est, err := consensus.EstimateWinProbability(p, tc.n, tc.delta, consensus.EstimateOptions{
					Trials: trials,
					Seed:   31,
				})
				if err != nil {
					t.Fatal(err)
				}
				wins[k] = int(math.Round(est.P() * trials))
			}
			p1 := float64(wins[0]) / trials
			p2 := float64(wins[1]) / trials
			pool := (p1 + p2) / 2
			se := math.Sqrt(2 * pool * (1 - pool) / trials)
			if se == 0 {
				if wins[0] != wins[1] {
					t.Errorf("%s n=%d delta=%d: degenerate but unequal win counts %v", mk().Name(), tc.n, tc.delta, wins)
				}
				continue
			}
			if z := math.Abs(p1-p2) / se; z > 4 {
				t.Errorf("%s n=%d delta=%d: per-event %.4f vs batch %.4f (z=%.2f > 4)",
					mk().Name(), tc.n, tc.delta, p1, p2, z)
			}
		}
	}
}

// TestBatchKernelWorkerDeterminism checks byte-determinism of the batch
// kernel across worker counts: per-trial streams are keyed by trial index,
// so the estimate may not depend on scheduling.
func TestBatchKernelWorkerDeterminism(t *testing.T) {
	var baseline stats.BernoulliEstimate
	for i, workers := range []int{1, 3, 8} {
		p := NewThreeStateAM()
		est, err := consensus.EstimateWinProbability(p, 100, 10, consensus.EstimateOptions{
			Trials:  500,
			Workers: workers,
			Seed:    13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseline = est
			continue
		}
		if est != baseline {
			t.Errorf("workers=%d: estimate %+v differs from workers=1 %+v", workers, est, baseline)
		}
	}
}

// TestBatchKernelInteractionBudgetLaw checks the budget edge cases the
// geometric skipping must preserve: a protocol whose pairs are all null
// exhausts its budget undecided, and the interaction counter lines up with
// the per-event loop's tick accounting at the boundary.
func TestBatchKernelInteractionBudgetLaw(t *testing.T) {
	// All-null protocol: nothing can ever change.
	stuck := &PopulationProtocol{
		ProtocolName:       "all-null",
		NumStates:          2,
		Rule:               func(a, b int) (int, int) { return a, b },
		MajorityState:      0,
		MinorityState:      1,
		Done:               func([]int) (bool, int) { return false, -1 },
		MaxInteractionsFor: func(int) int { return 1000 },
	}
	won, steps, err := stuck.run(10, 2, rng.New(1))
	if err != nil || won {
		t.Fatalf("all-null protocol: won=%v err=%v", won, err)
	}
	if steps != 1000 {
		t.Errorf("all-null protocol consumed %d interactions, want the full budget 1000", steps)
	}

	// The per-event oracle and the batch loop must agree exactly on the
	// consumed interaction count's law; with a deterministic protocol
	// (every pair effective, Done after one change) they agree exactly.
	oneShot := func(run func(p *PopulationProtocol, n, delta int, src *rng.Source) (bool, int, error)) int {
		p := &PopulationProtocol{
			ProtocolName:  "one-shot",
			NumStates:     2,
			Rule:          func(a, b int) (int, int) { return 0, 0 },
			MajorityState: 0,
			MinorityState: 1,
			Done: func(counts []int) (bool, int) {
				if counts[1] == 0 {
					return true, 0
				}
				return false, -1
			},
		}
		// n=4, delta=2: three majority agents, one minority. Every
		// interaction converts both participants to state 0, so exactly
		// one effective interaction decides the trial... but pairs
		// (0,0) are also effective-looking no-ops? No: Rule maps every
		// pair to (0,0); pairs already (0,0) are null. The first
		// interaction involving the minority agent ends the trial.
		won, steps, err := run(p, 4, 2, rng.New(5))
		if err != nil || !won {
			t.Fatalf("one-shot: won=%v err=%v", won, err)
		}
		return steps
	}
	// Both must report at least one interaction and stop decided.
	if s := oneShot(perEventTrial); s < 1 {
		t.Errorf("per-event one-shot consumed %d interactions", s)
	}
	if s := oneShot((*PopulationProtocol).run); s < 1 {
		t.Errorf("batch one-shot consumed %d interactions", s)
	}
}

// TestCacheKeyIgnoresKernel guards the sweep probe cache: the compiled
// rule table picks the engine and every engine replays the batch loop's
// trials, so the deprecated Kernel field must not split a protocol's
// cached probes.
func TestCacheKeyIgnoresKernel(t *testing.T) {
	a := NewThreeStateAM()
	b := NewThreeStateAM()
	b.Kernel = KernelLockstep
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("the Kernel field split the cache key: %q vs %q", a.CacheKey(), b.CacheKey())
	}
	if c := NewFourStateExact(); c.CacheKey() == a.CacheKey() {
		t.Errorf("different protocols share cache key %q", a.CacheKey())
	}
}
