package fabric

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/faultpoint"
	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// testModel is a fast protocol for fleet tests; the voter dynamics absorb
// quickly at small n.
func testModel(t *testing.T) (*scenario.Model, consensus.Protocol) {
	t.Helper()
	m := &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: "voter"}}
	p, err := m.BuildProtocol()
	if err != nil {
		t.Fatal(err)
	}
	return m, p
}

// startWorker serves one fabric worker over httptest and returns its
// registration. The worker is not running its heartbeat loop — tests
// register it with the coordinator directly, which keeps lease timing under
// test control.
func startWorker(t *testing.T, id string) (WorkerInfo, *httptest.Server) {
	t.Helper()
	mux := http.NewServeMux()
	w, err := NewWorker(WorkerConfig{ID: id, Coordinator: "http://unused.invalid", AdvertiseURL: "http://unused.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	w.Routes(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return WorkerInfo{ID: id, URL: srv.URL, Cores: 2}, srv
}

func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.ShardTrials == 0 {
		cfg.ShardTrials = 64
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// estimateLocal is the reference: the exact estimator a non-fleet run uses.
func estimateLocal(t *testing.T, p consensus.Protocol, n, delta int, earlyStop bool, target float64, opts consensus.EstimateOptions) stats.BernoulliEstimate {
	t.Helper()
	opts.EarlyStop, opts.Target = earlyStop, target
	est, err := consensus.EstimateWinProbability(p, n, delta, opts)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// estimateFleet runs the same estimate through the coordinator's probe
// factory.
func estimateFleet(t *testing.T, c *Coordinator, m *scenario.Model, p consensus.Protocol, n, delta int, earlyStop bool, target float64, opts consensus.EstimateOptions) stats.BernoulliEstimate {
	t.Helper()
	est, err := c.Probes()(m, p, n, target, earlyStop)(delta, opts)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestFleetMatchesLocal is the determinism anchor: the fleet estimate is
// byte-identical to the local estimator for 0, 1, and 3 workers, with and
// without early stopping, and under an adversarial shard assignment.
func TestFleetMatchesLocal(t *testing.T) {
	m, p := testModel(t)
	const (
		n, delta = 48, 6
		target   = 0.8
	)
	opts := consensus.EstimateOptions{Trials: 600, Workers: 2, Seed: 0xfab, Interrupt: func() error { return nil }}

	for _, earlyStop := range []bool{false, true} {
		want := estimateLocal(t, p, n, delta, earlyStop, target, opts)
		for _, workers := range []int{0, 1, 3} {
			for _, adversarial := range []bool{false, true} {
				if workers == 0 && adversarial {
					continue
				}
				name := fmt.Sprintf("earlystop=%v/workers=%d/adversarial=%v", earlyStop, workers, adversarial)
				t.Run(name, func(t *testing.T) {
					cfg := Config{}
					if adversarial {
						// Pin every shard to the lexicographically last live
						// worker, starving the rest — assignment must not
						// matter.
						cfg.Assign = func(ids []string, lo, hi int) string { return ids[len(ids)-1] }
					}
					c := newTestCoordinator(t, cfg)
					for i := 0; i < workers; i++ {
						info, _ := startWorker(t, fmt.Sprintf("w%d", i))
						if _, err := c.Register(info); err != nil {
							t.Fatal(err)
						}
					}
					got := estimateFleet(t, c, m, p, n, delta, earlyStop, target, opts)
					if got != want {
						t.Fatalf("fleet estimate %+v != local %+v", got, want)
					}
					st := c.FleetStats()
					if workers > 0 && st.ShardsDispatched == 0 {
						t.Fatalf("no shards dispatched with %d workers: %+v", workers, st)
					}
					if workers == 0 && st.ShardsLocal == 0 {
						t.Fatalf("empty fleet did not run locally: %+v", st)
					}
				})
			}
		}
	}
}

// TestFleetSurvivesWorkerKill kills one worker mid-run: its shards are
// reassigned and the estimate still matches the local run byte-for-byte.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	m, p := testModel(t)
	const (
		n, delta = 48, 6
		target   = 0.8
	)
	opts := consensus.EstimateOptions{Trials: 800, Workers: 2, Seed: 7, Interrupt: func() error { return nil }}
	want := estimateLocal(t, p, n, delta, false, target, opts)

	c := newTestCoordinator(t, Config{ShardTrials: 50})
	infoA, srvA := startWorker(t, "a")
	infoB, _ := startWorker(t, "b")
	for _, info := range []WorkerInfo{infoA, infoB} {
		if _, err := c.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	// Kill worker a after its first served shard: subsequent dispatches to
	// it fail at the transport, forcing eviction and reassignment.
	var served atomic.Int64
	inner := srvA.Config.Handler
	srvA.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 2 {
			go srvA.CloseClientConnections()
		}
		if served.Load() >= 2 {
			w.WriteHeader(http.StatusBadGateway) // torn mid-fleet: worker is dying
			return
		}
		inner.ServeHTTP(w, r)
	})

	got := estimateFleet(t, c, m, p, n, delta, false, target, opts)
	if got != want {
		t.Fatalf("fleet estimate after worker kill %+v != local %+v", got, want)
	}
	st := c.FleetStats()
	if st.Reassignments == 0 {
		t.Fatalf("worker kill caused no reassignment: %+v", st)
	}
	if st.WorkersLive != 1 {
		t.Fatalf("dead worker not evicted: %+v", st)
	}
}

// TestFleetFaultInjection drives the shard-dispatch and shard-result fault
// points: injected failures evict and reassign, and the estimate is still
// byte-identical to the local run.
func TestFleetFaultInjection(t *testing.T) {
	m, p := testModel(t)
	const (
		n, delta = 48, 4
		target   = 0.8
	)
	opts := consensus.EstimateOptions{Trials: 400, Workers: 2, Seed: 11, Interrupt: func() error { return nil }}
	want := estimateLocal(t, p, n, delta, false, target, opts)

	for _, site := range []faultpoint.Site{faultpoint.ShardDispatch, faultpoint.ShardResult} {
		t.Run(string(site), func(t *testing.T) {
			c := newTestCoordinator(t, Config{ShardTrials: 64})
			for _, id := range []string{"a", "b"} {
				info, _ := startWorker(t, id)
				if _, err := c.Register(info); err != nil {
					t.Fatal(err)
				}
			}
			faultpoint.Arm(faultpoint.NewPlan(faultpoint.Rule{Site: site, After: 1, Times: 1, Msg: "injected " + string(site) + " fault"}))
			defer faultpoint.Disarm()

			got := estimateFleet(t, c, m, p, n, delta, false, target, opts)
			if got != want {
				t.Fatalf("estimate under %s fault %+v != local %+v", site, got, want)
			}
			if st := c.FleetStats(); st.Reassignments == 0 {
				t.Fatalf("injected %s fault caused no reassignment: %+v", site, st)
			}
		})
	}
}

// TestLeaseExpiry advances the coordinator's clock past the lease TTL: the
// silent worker is evicted lazily and the window falls back to local
// execution, still byte-identical.
func TestLeaseExpiry(t *testing.T) {
	m, p := testModel(t)
	opts := consensus.EstimateOptions{Trials: 300, Workers: 2, Seed: 3, Interrupt: func() error { return nil }}
	want := estimateLocal(t, p, 32, 4, false, 0.8, opts)

	c := newTestCoordinator(t, Config{LeaseTTL: time.Minute})
	info, _ := startWorker(t, "stale")
	if _, err := c.Register(info); err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	c.now = func() time.Time { return base.Add(2 * time.Minute) }

	got := estimateFleet(t, c, m, p, 32, 4, false, 0.8, opts)
	if got != want {
		t.Fatalf("estimate after lease expiry %+v != local %+v", got, want)
	}
	st := c.FleetStats()
	if st.Evictions == 0 || st.WorkersLive != 0 {
		t.Fatalf("expired worker not evicted: %+v", st)
	}
	if st.ShardsLocal == 0 {
		t.Fatalf("no local fallback after fleet drained: %+v", st)
	}
}

// TestWorkerScopedProgress asserts the coordinator attributes trial progress
// to worker-scoped streams with strictly increasing Done counters.
func TestWorkerScopedProgress(t *testing.T) {
	m, p := testModel(t)
	c := newTestCoordinator(t, Config{ShardTrials: 64})
	info, _ := startWorker(t, "obs")
	if _, err := c.Register(info); err != nil {
		t.Fatal(err)
	}
	var mu struct {
		events []progress.Event
	}
	var guard = make(chan struct{}, 1)
	hook := func(e progress.Event) {
		guard <- struct{}{}
		mu.events = append(mu.events, e)
		<-guard
	}
	opts := consensus.EstimateOptions{Trials: 300, Workers: 2, Seed: 5, Interrupt: func() error { return nil }, Progress: hook}
	estimateFleet(t, c, m, p, 32, 4, false, 0.8, opts)

	lastDone := int64(0)
	scoped := 0
	for _, e := range mu.events {
		if e.Kind != progress.KindTrials || e.Scope != WorkerScope("obs") {
			continue
		}
		scoped++
		if e.Done <= lastDone {
			t.Fatalf("worker-scoped Done not strictly increasing: %d after %d", e.Done, lastDone)
		}
		if e.Total < e.Done {
			t.Fatalf("assigned %d below done %d", e.Total, e.Done)
		}
		lastDone = e.Done
	}
	if scoped == 0 {
		t.Fatal("no worker-scoped trial events observed")
	}
}

// TestWorkerJournal: a restarted coordinator re-adopts journaled workers
// that still answer healthz, drops dead ones, and quarantines torn entries.
func TestWorkerJournal(t *testing.T) {
	dir := t.TempDir()
	c1 := newTestCoordinator(t, Config{JournalDir: dir})
	live, _ := startWorker(t, "live")
	dead, deadSrv := startWorker(t, "dead")
	for _, info := range []WorkerInfo{live, dead} {
		if _, err := c1.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	deadSrv.Close()
	// A torn entry from a crash mid-write must be quarantined, not fatal.
	torn := filepath.Join(dir, "worker-torn.json")
	if err := os.WriteFile(torn, []byte(`{"id": "torn", "url": "ht`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCoordinator(t, Config{JournalDir: dir})
	views := c2.Workers()
	if len(views) != 1 || views[0].ID != "live" {
		t.Fatalf("restarted coordinator adopted %+v, want only the live worker", views)
	}
	if _, err := os.Stat(torn + ".corrupt"); err != nil {
		t.Fatalf("torn journal entry not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "worker-dead.json")); !os.IsNotExist(err) {
		t.Fatalf("dead worker's journal entry not removed: %v", err)
	}
}

// TestCacheEndpoints exercises the coordinator's probe-cache surface: ETag
// round trip, 304 revalidation, merge-by-key pushes, and interop with the
// sweep remote backend.
func TestCacheEndpoints(t *testing.T) {
	shared := sweep.NewCache()
	shared.Put(sweep.Key{Protocol: "voter", N: 32, Delta: 4, Seed: 1, Trials: 100}, stats.BernoulliEstimate{Successes: 60, Trials: 100, Lo: 0.5, Hi: 0.7})
	c := newTestCoordinator(t, Config{Cache: shared})
	mux := http.NewServeMux()
	c.Routes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cacheURL := srv.URL + "/fabric/v1/cache"

	// A remote-backed sweep cache warm-starts from the server.
	rc, err := sweep.OpenRemoteCache(cacheURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Len() != 1 {
		t.Fatalf("remote cache warm start adopted %d entries, want 1", rc.Len())
	}
	// Settling a new probe and checkpointing pushes it to the server.
	rc.Put(sweep.Key{Protocol: "voter", N: 64, Delta: 8, Seed: 1, Trials: 100}, stats.BernoulliEstimate{Successes: 80, Trials: 100, Lo: 0.7, Hi: 0.9})
	if err := rc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if shared.Len() != 2 {
		t.Fatalf("push merged to %d entries, want 2", shared.Len())
	}
	if err := rc.Degraded(); err != nil {
		t.Fatalf("remote cache degraded: %v", err)
	}

	// Conditional GET with the current validator answers 304.
	resp, err := http.Get(cacheURL)
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("Etag")
	resp.Body.Close()
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("cache GET returned no quoted ETag: %q", etag)
	}
	req, _ := http.NewRequest(http.MethodGet, cacheURL, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation answered %s, want 304", resp.Status)
	}
	st := c.FleetStats()
	if st.CacheHits == 0 || st.CacheMisses == 0 || st.CacheMerges == 0 {
		t.Fatalf("cache counters not moving: %+v", st)
	}
}

// TestWorkerShardErrors pins the worker's error contract: undecodable
// bodies answer 400, failing trials answer 422, and the coordinator treats
// 422 as fatal rather than reassigning.
func TestWorkerShardErrors(t *testing.T) {
	info, srv := startWorker(t, "errs")
	resp, err := http.Post(srv.URL+"/fabric/v1/shards", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("torn shard body answered %s, want 400", resp.Status)
	}
	// An unknown protocol fails deterministically: 422.
	resp, err = http.Post(srv.URL+"/fabric/v1/shards", "application/json",
		strings.NewReader(`{"model": {"kind": "protocol", "protocol": {"name": "no-such"}}, "n": 8, "delta": 2, "lo": 0, "hi": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown protocol answered %s, want 422", resp.Status)
	}

	// The coordinator surfaces the 422 instead of evicting the worker.
	c := newTestCoordinator(t, Config{})
	if _, err := c.Register(info); err != nil {
		t.Fatal(err)
	}
	badModel := &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: "no-such"}}
	_, _, derr := c.dispatch(info, ShardRequest{Model: badModel, N: 8, Delta: 2, Lo: 0, Hi: 8})
	if derr == nil || !strings.Contains(derr.Error(), "no-such") {
		t.Fatalf("dispatch of failing shard: %v", derr)
	}
	if st := c.FleetStats(); st.WorkersLive != 1 {
		t.Fatalf("422 evicted the worker: %+v", st)
	}
}
