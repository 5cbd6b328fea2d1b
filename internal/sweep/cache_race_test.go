package sweep

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"lvmajority/internal/stats"
)

// TestCacheConcurrentSweeps hammers one Cache from many concurrent sweeps —
// the shape of load the process-wide server cache sees: several in-flight
// runs over overlapping and disjoint probe keys, each sweep's probes fanning
// out over workers, interleaved with raw Get/Put/Counters/Len and
// periodic Saves. Run under -race (CI does) this is the satellite guarantee
// that sweep.Cache is safe to share between in-flight runs; without -race it
// still verifies that concurrent sweeps read back exactly the results a
// serial run produces.
func TestCacheConcurrentSweeps(t *testing.T) {
	cache, err := OpenCache(filepath.Join(t.TempDir(), "hammer.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference: one sweep per protocol variant on a private cache.
	protos := []sqrtStepProtocol{{c: 1.5}, {c: 2}, {c: 2.5}}
	optsFor := func(seed uint64) Options {
		return Options{Grid: testGrid, Target: 0.9, Trials: 300, Seed: seed, Workers: 2}
	}
	want := make([]Result, len(protos))
	for i, p := range protos {
		opts := optsFor(uint64(i + 1))
		res, err := Run(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	// Hammer: every protocol swept several times concurrently, all sharing
	// the one cache, racing with raw cache traffic and Saves.
	const repeats = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(protos)*repeats+2)
	for rep := 0; rep < repeats; rep++ {
		for i, p := range protos {
			wg.Add(1)
			go func(i int, p sqrtStepProtocol) {
				defer wg.Done()
				opts := optsFor(uint64(i + 1))
				opts.Cache = cache
				res, err := Run(p, opts)
				if err != nil {
					errs <- err
					return
				}
				for j, pt := range res.Points {
					if pt.Threshold != want[i].Points[j].Threshold {
						errs <- fmt.Errorf("protocol %d, n=%d: threshold %d under contention, want %d",
							i, pt.N, pt.Threshold, want[i].Points[j].Threshold)
						return
					}
				}
			}(i, p)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Raw traffic on keys disjoint from the sweeps' (protocol "raw").
		for k := 0; k < 500; k++ {
			key := Key{Protocol: "raw", N: k % 7, Delta: k % 5, Seed: 1, Trials: 100, Target: 0.9}
			cache.Put(key, stats.BernoulliEstimate{Successes: k % 101, Trials: 100, Lo: 0, Hi: 1})
			if est, ok := cache.Get(key); ok && est.Trials != 100 {
				errs <- fmt.Errorf("raw key read back %d trials, want 100", est.Trials)
				return
			}
			cache.Counters()
			cache.Len()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			if err := cache.Save(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The persisted file must survive the contention intact.
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := OpenCache(cache.path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != cache.Len() {
		t.Errorf("reloaded cache has %d entries, want %d", reloaded.Len(), cache.Len())
	}
}

// TestCacheInterruptKeepsSettledProbes verifies the Interrupt contract: an
// aborted sweep keeps (and persists) the probes it settled, and a resumed
// sweep replays them without fresh estimator calls.
func TestCacheInterruptKeepsSettledProbes(t *testing.T) {
	cache := NewCache()
	proto := sqrtStepProtocol{c: 2}
	opts := Options{Grid: testGrid, Target: 0.9, Trials: 200, Seed: 9, Cache: cache}

	// Interrupt is polled from every worker goroutine, so the counter must
	// be atomic. The budget lets the first probes settle before aborting.
	var polls atomic.Int64
	stop := fmt.Errorf("stop")
	opts.Interrupt = func() error {
		if polls.Add(1) > 450 {
			return stop
		}
		return nil
	}
	if _, err := Run(proto, opts); err == nil {
		t.Fatal("interrupted sweep returned nil error")
	}
	if cache.Len() == 0 {
		t.Fatal("interrupted sweep settled no probes; the test needs a later interrupt")
	}
	settled := cache.Len()

	opts.Interrupt = nil
	res, err := Run(proto, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits < settled {
		t.Errorf("resumed sweep replayed %d probes, want at least the %d settled before the interrupt",
			res.CacheHits, settled)
	}
}
