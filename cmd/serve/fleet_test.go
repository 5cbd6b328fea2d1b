package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lvmajority/internal/fabric"
	"lvmajority/internal/scenario"
	"lvmajority/internal/testutil"
)

// newFleetTestServer starts a server in -fleet mode plus n fabric workers,
// each registered through the real HTTP registration endpoint — the same
// wiring `serve -fleet` does in main.
func newFleetTestServer(t *testing.T, n int) (*server, *httptest.Server) {
	t.Helper()
	testutil.CheckGoroutineLeaks(t)
	s := newServer(2, 16, 1<<20, log.New(io.Discard, "", 0))
	coord, err := fabric.New(fabric.Config{ShardTrials: 64, Cache: s.runner.Cache})
	if err != nil {
		t.Fatal(err)
	}
	s.fleet = coord
	s.runner.Probes = coord.Probes()
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.stop()
		s.wait()
	})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("flt-%d", i)
		mux := http.NewServeMux()
		// The advertise URL is a placeholder: registration below carries the
		// httptest listener's real URL, which only exists after Routes is
		// served.
		w, err := fabric.NewWorker(fabric.WorkerConfig{ID: id, Coordinator: ts.URL, AdvertiseURL: "http://unused.invalid"})
		if err != nil {
			t.Fatal(err)
		}
		w.Routes(mux)
		ws := httptest.NewServer(mux)
		t.Cleanup(ws.Close)
		info, err := json.Marshal(fabric.WorkerInfo{ID: id, URL: ws.URL, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/fabric/v1/workers", "application/json", strings.NewReader(string(info)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker registration answered %s", resp.Status)
		}
	}
	return s, ts
}

// TestFleetModeEndToEnd submits the same spec to a plain server and a
// 2-worker fleet server: the results must be byte-identical, the work must
// actually have been sharded, and the fleet metric families must reflect
// it.
func TestFleetModeEndToEnd(t *testing.T) {
	spec := estimateSpec()

	_, plain := newTestServer(t, 2, 16)
	code, out := postSpec(t, plain, spec)
	if code != http.StatusAccepted {
		t.Fatalf("plain submit: status %d %v", code, out)
	}
	want := waitForRun(t, plain, int(out["id"].(float64)), 30*time.Second)
	if want.Status != statusDone {
		t.Fatalf("plain run %s: %s", want.Status, want.Error)
	}

	_, fleet := newFleetTestServer(t, 2)
	code, out = postSpec(t, fleet, spec)
	if code != http.StatusAccepted {
		t.Fatalf("fleet submit: status %d %v", code, out)
	}
	got := waitForRun(t, fleet, int(out["id"].(float64)), 30*time.Second)
	if got.Status != statusDone {
		t.Fatalf("fleet run %s: %s", got.Status, got.Error)
	}

	wantEst, err := json.Marshal(want.Result.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	gotEst, err := json.Marshal(got.Result.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotEst) != string(wantEst) {
		t.Errorf("fleet estimate differs from plain server:\n%s\nvs\n%s", gotEst, wantEst)
	}

	resp, err := http.Get(fleet.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		`lvmajority_fleet_workers{state="live"} 2`,
		`lvmajority_fleet_workers{state="expired"} 0`,
		"lvmajority_fleet_shards_in_flight 0",
		"lvmajority_fleet_reassignments_total 0",
		"lvmajority_fleet_remote_cache_hits_total 0",
		"lvmajority_fleet_remote_cache_misses_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The run above must have been sharded across the fleet, not run
	// locally.
	if !strings.Contains(metrics, "lvmajority_fleet_shards_local_total 0") {
		t.Error("fleet fell back to local execution with live workers")
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "lvmajority_fleet_shards_dispatched_total ") &&
			strings.TrimPrefix(line, "lvmajority_fleet_shards_dispatched_total ") == "0" {
			t.Error("no shards dispatched: the fleet did nothing")
		}
	}

	// A plain server exposes no fleet families at all.
	resp, err = http.Get(plain.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "lvmajority_fleet_") {
		t.Error("non-fleet server exposes fleet metric families")
	}
}

// TestFleetConcurrentCorpus submits every spec of the committed fleet
// corpus four times to a 2-worker fleet before waiting on any run, so that
// the runs overlap on the coordinator, its workers and the shared probe
// cache. Each run must end done, with the estimate or threshold search
// (every probe's win count) and the manifest tables that a plain server
// computes for the same spec.
func TestFleetConcurrentCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "fleet", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var specs []scenario.Spec
	for _, path := range paths {
		loaded, err := scenario.LoadSpecs(path)
		if err != nil {
			t.Fatalf("corpus %s: %v", path, err)
		}
		specs = append(specs, loaded...)
	}
	if len(specs) == 0 {
		t.Fatal("no committed fleet corpus specs")
	}
	// answer renders what a run computed, leaving out the provenance that
	// varies between runs.
	answer := func(ts *httptest.Server, id int) string {
		t.Helper()
		r := waitForRun(t, ts, id, 60*time.Second)
		if r.Status != statusDone {
			t.Fatalf("run %d %s: %s", id, r.Status, r.Error)
		}
		if r.Result == nil || len(r.Result.Manifests) != 1 {
			t.Fatalf("run %d: done without exactly one manifest", id)
		}
		data, err := json.Marshal(struct {
			Estimate  any `json:"estimate"`
			Threshold any `json:"threshold"`
			Tables    any `json:"tables"`
		}{r.Result.Estimate, r.Result.Threshold, r.Result.Manifests[0].Tables})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	submit := func(ts *httptest.Server, spec scenario.Spec) int {
		t.Helper()
		code, out := postSpec(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d %v", code, out)
		}
		return int(out["id"].(float64))
	}

	_, plain := newTestServer(t, 2, 16)
	want := make([]string, len(specs))
	for i, spec := range specs {
		want[i] = answer(plain, submit(plain, spec))
	}

	s, fleet := newFleetTestServer(t, 2)
	const copies = 4
	ids := make([]int, 0, copies*len(specs))
	for range copies {
		for _, spec := range specs {
			ids = append(ids, submit(fleet, spec))
		}
	}
	for k, id := range ids {
		i := k % len(specs)
		if got := answer(fleet, id); got != want[i] {
			t.Errorf("fleet run %d of corpus spec %d differs from the plain server:\n%s\nvs\n%s", id, i, got, want[i])
		}
	}
	st := s.fleet.FleetStats()
	t.Logf("%d runs, %d shards dispatched", len(ids), st.ShardsDispatched)
	if st.ShardsDispatched == 0 {
		t.Error("no shards dispatched: the fleet ran nothing")
	}
}

// TestSubmitRejectsRemoteCachePolicy: a submitted spec must not point the
// server at an outside cache server; the server's own cache is the shared
// one.
func TestSubmitRejectsRemoteCachePolicy(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)
	spec := estimateSpec()
	spec.Cache = &scenario.CacheSpec{Policy: scenario.CacheRemote, URL: "http://cache.invalid/fabric/v1/cache"}
	code, out := postSpec(t, ts, spec)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("remote-cache spec: status %d %v, want 422", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "remote cache") {
		t.Errorf("error %q does not explain the rejection", msg)
	}
}

// TestFleetWorkerDeregister: DELETE unregisters a worker; runs keep working
// against the remaining fleet.
func TestFleetWorkerDeregister(t *testing.T) {
	s, ts := newFleetTestServer(t, 2)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/fabric/v1/workers/flt-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister answered %s", resp.Status)
	}
	if st := s.fleet.FleetStats(); st.WorkersLive != 1 {
		t.Fatalf("%d live workers after deregister, want 1", st.WorkersLive)
	}
	code, out := postSpec(t, ts, estimateSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit after deregister: status %d %v", code, out)
	}
	r := waitForRun(t, ts, int(out["id"].(float64)), 30*time.Second)
	if r.Status != statusDone {
		t.Fatalf("run after deregister %s: %s", r.Status, r.Error)
	}
}
