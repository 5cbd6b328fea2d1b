package sweep

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

// sqrtStepProtocol succeeds deterministically once the gap reaches
// ceil(c·√n): a noiseless protocol whose threshold curve is monotone in n,
// like Ψ(n) for every protocol in the repository.
type sqrtStepProtocol struct{ c float64 }

func (p sqrtStepProtocol) Name() string { return fmt.Sprintf("sqrt-step(%g)", p.c) }

func (p sqrtStepProtocol) Trial(n, delta int, _ *rng.Source) (bool, error) {
	return float64(delta) >= p.c*math.Sqrt(float64(n)), nil
}

// logisticProtocol is a noisy protocol whose success probability is a steep
// logistic ramp centred at 2·√n — a stochastic stand-in for the LV chains
// that keeps the test fast.
type logisticProtocol struct{}

func (logisticProtocol) Name() string { return "logistic" }

func (logisticProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	centre := 2 * math.Sqrt(float64(n))
	p := 1 / (1 + math.Exp(-(float64(delta)-centre)/1.5))
	return src.Bernoulli(p), nil
}

var testGrid = []int{48, 64, 96, 128, 192, 256}

// coldReference runs the plain serial FindThreshold per grid point with the
// same per-point options the sweep derives.
func coldReference(t *testing.T, p consensus.Protocol, opts Options) []consensus.ThresholdResult {
	t.Helper()
	out := make([]consensus.ThresholdResult, 0, len(opts.Grid))
	for _, n := range opts.Grid {
		res, err := consensus.FindThreshold(p, n, consensus.ThresholdOptions{
			Target:    opts.Target,
			Trials:    opts.trialsFor(n),
			Workers:   1,
			Seed:      opts.seedFor(n),
			EarlyStop: !opts.NoEarlyStop,
			Interrupt: opts.Interrupt,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestSweepMatchesColdSerial is the headline regression test: the
// warm-started, cached, parallel sweep must return byte-identical Threshold
// values to the cold serial FindThreshold, for any worker count and a warm
// or cold cache.
func TestSweepMatchesColdSerial(t *testing.T) {
	for _, proto := range []consensus.Protocol{sqrtStepProtocol{c: 1.7}, logisticProtocol{}} {
		for _, earlyStop := range []bool{true, false} {
			base := Options{
				Grid:        testGrid,
				Target:      0.9,
				Trials:      600,
				Seed:        41,
				NoEarlyStop: !earlyStop,
			}
			want := coldReference(t, proto, base)
			cache := NewCache()
			for _, workers := range []int{1, 3, 8} {
				opts := base
				opts.Workers = workers
				opts.Cache = cache
				res, err := Run(proto, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Points) != len(want) {
					t.Fatalf("%s: %d points, want %d", proto.Name(), len(res.Points), len(want))
				}
				for i, pt := range res.Points {
					if pt.Threshold != want[i].Threshold || pt.Found != want[i].Found {
						t.Errorf("%s earlyStop=%v workers=%d: n=%d threshold=%d (found=%v), cold serial %d (found=%v)",
							proto.Name(), earlyStop, workers, pt.N,
							pt.Threshold, pt.Found, want[i].Threshold, want[i].Found)
					}
				}
			}
		}
	}
}

// TestSweepWarmStartFewerProbes asserts the tentpole saving: warm-started
// brackets must issue strictly fewer probes than cold search over the same
// grid.
func TestSweepWarmStartFewerProbes(t *testing.T) {
	base := Options{Grid: testGrid, Target: 0.9, Trials: 400, Seed: 7, Workers: 1}

	cold := base
	cold.Cold = true
	coldRes, err := Run(sqrtStepProtocol{c: 1.7}, cold)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := Run(sqrtStepProtocol{c: 1.7}, base)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Probes >= coldRes.Probes {
		t.Errorf("warm sweep used %d probes, cold %d — warm starting saved nothing", warmRes.Probes, coldRes.Probes)
	}
	// Deep in the grid the hint trails the slowly moving step curve by a
	// couple of grid steps, so a warm point settles in a handful of
	// probes where cold search pays the full exponential phase.
	last := warmRes.Points[len(warmRes.Points)-1]
	lastCold := coldRes.Points[len(coldRes.Points)-1]
	if last.Probes > 4 {
		t.Errorf("warm-started final point used %d probes, want <= 4", last.Probes)
	}
	if last.Probes >= lastCold.Probes {
		t.Errorf("warm-started final point used %d probes, cold used %d", last.Probes, lastCold.Probes)
	}
	for i, pt := range warmRes.Points {
		if pt.Threshold != coldRes.Points[i].Threshold {
			t.Errorf("n=%d: warm threshold %d != cold %d", pt.N, pt.Threshold, coldRes.Points[i].Threshold)
		}
	}
}

// TestSweepWarmCacheZeroEstimatorCalls asserts the acceptance criterion: a
// second run against a warm cache issues zero new estimator calls, and a
// cache persisted to disk serves a fresh process-equivalent run the same
// way.
func TestSweepWarmCacheZeroEstimatorCalls(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep", "cache.json")
	cache, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Grid: testGrid, Target: 0.9, Trials: 500, Seed: 11, Cache: cache}

	first, err := Run(logisticProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.EstimatorCalls == 0 || first.CacheHits != 0 {
		t.Fatalf("first run: %d estimator calls, %d hits — expected all-fresh", first.EstimatorCalls, first.CacheHits)
	}
	if first.EstimatorCalls != first.Probes {
		t.Errorf("first run: %d estimator calls != %d probes", first.EstimatorCalls, first.Probes)
	}

	second, err := Run(logisticProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.EstimatorCalls != 0 {
		t.Errorf("second run issued %d estimator calls against a warm cache, want 0", second.EstimatorCalls)
	}
	if second.CacheHits != second.Probes {
		t.Errorf("second run: %d hits != %d probes", second.CacheHits, second.Probes)
	}

	// Same again from disk, as a re-executed CLI would see it.
	reopened, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = reopened
	third, err := Run(logisticProtocol{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.EstimatorCalls != 0 {
		t.Errorf("persisted-cache run issued %d estimator calls, want 0", third.EstimatorCalls)
	}
	for i, pt := range third.Points {
		if pt.Threshold != first.Points[i].Threshold {
			t.Errorf("n=%d: cached threshold %d != fresh %d", pt.N, pt.Threshold, first.Points[i].Threshold)
		}
	}
}

// TestSweepCacheKeyInvalidation asserts that every field of the cache key
// actually invalidates: a run differing in seed, trials, target, estimator
// mode, or protocol must not replay cached probes.
func TestSweepCacheKeyInvalidation(t *testing.T) {
	cache := NewCache()
	base := Options{Grid: []int{64, 96}, Target: 0.9, Trials: 300, Seed: 5, Cache: cache}
	if _, err := Run(logisticProtocol{}, base); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]Options{
		"seed":   {Grid: base.Grid, Target: 0.9, Trials: 300, Seed: 6, Cache: cache},
		"trials": {Grid: base.Grid, Target: 0.9, Trials: 301, Seed: 5, Cache: cache},
		"target": {Grid: base.Grid, Target: 0.91, Trials: 300, Seed: 5, Cache: cache},
		"nostop": {Grid: base.Grid, Target: 0.9, Trials: 300, Seed: 5, Cache: cache, NoEarlyStop: true},
	}
	for name, opts := range mutations {
		res, err := Run(logisticProtocol{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits != 0 {
			t.Errorf("%s mutation replayed %d cached probes, want 0", name, res.CacheHits)
		}
	}
	res, err := Run(sqrtStepProtocol{c: 1.7}, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Errorf("different protocol replayed %d cached probes, want 0", res.CacheHits)
	}
}

// TestCacheKeyProtocolIdentity asserts that the cache keys a protocol by
// its dynamics, not its display label: two LV protocols sharing a Label but
// differing in rate constants must not replay each other's probes.
func TestCacheKeyProtocolIdentity(t *testing.T) {
	cache := NewCache()
	opts := Options{Grid: []int{32}, Trials: 50, Seed: 3, Cache: cache}
	strong := consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), Label: "same-label"}
	weak := consensus.LVProtocol{Params: lv.Neutral(1, 1, 0.25, 0, lv.SelfDestructive), Label: "same-label"}
	if _, err := Run(strong, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(weak, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Errorf("relabelled dynamics replayed %d cached probes, want 0", res.CacheHits)
	}
	again, err := Run(weak, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.EstimatorCalls != 0 {
		t.Errorf("identical dynamics re-ran %d probes, want full replay", again.EstimatorCalls)
	}
}

func TestCachePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Protocol: "p", N: 64, Delta: 8, Seed: 3, Trials: 100, Target: 0.9, EarlyStop: true}
	est := stats.BernoulliEstimate{Successes: 90, Trials: 100, Lo: 0.82, Hi: 0.94}
	c.Put(key, est)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	// Saving an unchanged cache must be a no-op (dirty tracking).
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened cache has %d entries, want 1", re.Len())
	}
	got, ok := re.Get(key)
	if !ok || got != est {
		t.Errorf("reopened entry = %+v (ok=%v), want %+v", got, ok, est)
	}
	if _, ok := re.Get(Key{Protocol: "other"}); ok {
		t.Error("missing key reported as present")
	}
}

func TestCacheCounters(t *testing.T) {
	c := NewCache()
	key := Key{Protocol: "p", N: 64}
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(key, stats.BernoulliEstimate{Trials: 1})
	if _, ok := c.Get(key); !ok {
		t.Fatal("stored key missing")
	}
	if _, ok := c.Get(Key{Protocol: "other"}); ok {
		t.Fatal("missing key reported as present")
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 2 {
		t.Errorf("Counters() = %d hits, %d misses; want 1, 2", hits, misses)
	}
}

func TestCacheMemoryOnly(t *testing.T) {
	c := NewCache()
	c.Put(Key{Protocol: "p"}, stats.BernoulliEstimate{Trials: 1})
	if err := c.Save(); err != nil {
		t.Errorf("memory-only Save errored: %v", err)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Run(nil, Options{Grid: []int{64}}); err == nil {
		t.Error("nil protocol accepted")
	}
	if _, err := Run(logisticProtocol{}, Options{}); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestSweepGridSortedDeduped(t *testing.T) {
	res, err := Run(sqrtStepProtocol{c: 1.7}, Options{
		Grid: []int{128, 64, 128, 96}, Target: 0.9, Trials: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{64, 96, 128}
	if len(res.Points) != len(want) {
		t.Fatalf("%d points, want %d", len(res.Points), len(want))
	}
	for i, pt := range res.Points {
		if pt.N != want[i] {
			t.Errorf("point %d has n=%d, want %d", i, pt.N, want[i])
		}
	}
	curve := res.Curve()
	for i, cp := range curve {
		if cp.N != want[i] || cp.Threshold != res.Points[i].Threshold {
			t.Errorf("Curve()[%d] = %+v mismatch", i, cp)
		}
	}
}
