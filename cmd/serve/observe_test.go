package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
)

// streamEvents subscribes to a run's SSE endpoint and collects events until
// stop returns true, the stream closes, or the timeout elapses. Frames are
// checked for coherence: the SSE event name must equal the payload's kind.
func streamEvents(t *testing.T, ts *httptest.Server, id int, stop func(progress.Event) bool, timeout time.Duration) []progress.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/runs/%d/events", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var events []progress.Event
	var name, data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if data != "" {
				var e progress.Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatalf("bad SSE payload %q: %v", data, err)
				}
				if string(e.Kind) != name {
					t.Errorf("SSE event name %q disagrees with payload kind %q", name, e.Kind)
				}
				events = append(events, e)
				if stop != nil && stop(e) {
					return events
				}
			}
			name, data = "", ""
		}
	}
	return events
}

// terminalPhase matches the run's terminal lifecycle event.
func terminalPhase(id int) func(progress.Event) bool {
	return func(e progress.Event) bool {
		return e.Kind == progress.KindPhase && e.Scope == runScope(id) && terminalStatus(runStatus(e.Phase))
	}
}

// sseSpec is slow enough to subscribe to mid-run but finishes in seconds:
// one medium population, serial, with enough trials for many snapshots.
func sseSpec() scenario.Spec {
	spec := scenario.New(scenario.TaskEstimate)
	spec.Model = &scenario.Model{Kind: scenario.ModelLV, LV: &scenario.LVModel{
		Beta: 1, Death: 1, Alpha0: 1, Alpha1: 1, Competition: "sd", Label: "lv-sd",
	}}
	spec.Seed = 11
	spec.Workers = 1
	spec.Estimate = &scenario.EstimateSpec{N: 256, Delta: 16, Trials: 4000}
	return spec
}

// TestEventsStreamEndToEnd is the SSE acceptance test: a subscriber attached
// while the run is live sees the lifecycle in order (queued, running, done),
// strictly increasing trial counters per stream, a running estimate, and a
// terminal event that agrees with GET /v1/runs/{id}.
func TestEventsStreamEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)
	s.throttle = time.Millisecond

	code, created := postSpec(t, ts, sseSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	id := int(created["id"].(float64))
	events := streamEvents(t, ts, id, terminalPhase(id), 60*time.Second)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}

	var phases []string
	trials := 0
	type streamKey struct {
		scope    string
		n, delta int
	}
	last := map[streamKey]int64{}
	var lastEstimate *progress.Event
	for _, e := range events {
		switch e.Kind {
		case progress.KindPhase:
			if e.Scope == runScope(id) {
				phases = append(phases, e.Phase)
			}
		case progress.KindTrials:
			trials++
			k := streamKey{e.Scope, e.N, e.Delta}
			if e.Done <= last[k] {
				t.Fatalf("trial counter regressed: %d after %d in stream %+v", e.Done, last[k], k)
			}
			last[k] = e.Done
		case progress.KindEstimate:
			cp := e
			lastEstimate = &cp
		}
	}
	want := []string{string(statusQueued), string(statusRunning), string(statusDone)}
	if fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Errorf("lifecycle phases %v, want %v", phases, want)
	}
	if trials == 0 {
		t.Error("no trials snapshots on the stream")
	}

	r := waitForRun(t, ts, id, 10*time.Second)
	if r.Status != statusDone {
		t.Fatalf("run finished %s: %s", r.Status, r.Error)
	}
	final := events[len(events)-1]
	if final.Phase != string(r.Status) {
		t.Errorf("terminal event phase %q, run status %q", final.Phase, r.Status)
	}
	if lastEstimate == nil || lastEstimate.Estimate == nil {
		t.Fatal("no running estimate on the stream")
	}
	if *lastEstimate.Estimate != *r.Result.Estimate {
		t.Errorf("last streamed estimate %+v, run result %+v", *lastEstimate.Estimate, *r.Result.Estimate)
	}
}

// TestEventsLateSubscriberGetsTerminalEvent: subscribing after the run has
// finished still yields a stream that replays and ends with the terminal
// phase — the documented "the stream always ends with a terminal event"
// guarantee, including the synthesized path.
func TestEventsLateSubscriberGetsTerminalEvent(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)
	code, created := postSpec(t, ts, estimateSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	id := int(created["id"].(float64))
	if r := waitForRun(t, ts, id, 30*time.Second); r.Status != statusDone {
		t.Fatalf("run finished %s", r.Status)
	}
	// stop == nil: read until the server closes the stream.
	events := streamEvents(t, ts, id, nil, 10*time.Second)
	if len(events) == 0 {
		t.Fatal("late subscriber saw no events")
	}
	final := events[len(events)-1]
	if final.Kind != progress.KindPhase || final.Phase != string(statusDone) {
		t.Errorf("late stream ends with %+v, want done phase", final)
	}
}

// TestEventsHeartbeat: an idle stream stays alive through synthesized
// heartbeat events at the server's interval.
func TestEventsHeartbeat(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	s.heartbeat = 25 * time.Millisecond

	code, created := postSpec(t, ts, slowSweepSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	id := int(created["id"].(float64))
	events := streamEvents(t, ts, id, func(e progress.Event) bool {
		return e.Kind == progress.KindHeartbeat
	}, 20*time.Second)
	if len(events) == 0 || events[len(events)-1].Kind != progress.KindHeartbeat {
		t.Fatal("no heartbeat on an idle stream")
	}
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%d", ts.URL, id), nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// TestEventsClientDisconnect: dropping an SSE client releases its
// subscription — the handler returns and the broadcaster reaps the channel,
// so watching a run cannot leak goroutines.
func TestEventsClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)

	code, created := postSpec(t, ts, slowSweepSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	id := int(created["id"].(float64))
	s.mu.Lock()
	b := s.runs[id].events
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/runs/%d/events", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	resp.Body.Close()
	for b.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnected client still subscribed (%d live)", b.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	del, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%d", ts.URL, id), nil)
	if dresp, err := http.DefaultClient.Do(del); err == nil {
		dresp.Body.Close()
	}
}

// TestCancelLifecycleMatrix pins DELETE /v1/runs/{id} to its documented
// matrix: 404 for unknown runs, 200 for queued and running runs, 409 for any
// finished run — including a second cancel of an already-cancelled run.
func TestCancelLifecycleMatrix(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)

	// Seed runs directly in each lifecycle state: the matrix is about the
	// handler's response to state, not about how the state was reached
	// (the end-to-end cancel paths are covered elsewhere).
	cancelCalled := false
	seed := func(st runStatus, cancel context.CancelFunc) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		id := s.nextID
		s.nextID++
		r := &run{ID: id, Status: st, Spec: estimateSpec(), Submitted: now(), cancel: cancel, events: progress.NewBroadcaster()}
		s.runs[id] = r
		s.order = append(s.order, id)
		return id
	}
	del := func(id int) (int, run) {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/runs/%d", ts.URL, id), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r run
		json.NewDecoder(resp.Body).Decode(&r)
		return resp.StatusCode, r
	}

	queuedID := seed(statusQueued, nil)
	runningID := seed(statusRunning, func() { cancelCalled = true })
	doneID := seed(statusDone, nil)
	failedID := seed(statusFailed, nil)
	cancelledID := seed(statusCancelled, nil)

	for _, tc := range []struct {
		name string
		id   int
		want int
	}{
		{"unknown", 9999, http.StatusNotFound},
		{"queued", queuedID, http.StatusOK},
		{"double-cancel", queuedID, http.StatusConflict},
		{"running", runningID, http.StatusOK},
		{"done", doneID, http.StatusConflict},
		{"failed", failedID, http.StatusConflict},
		{"cancelled", cancelledID, http.StatusConflict},
	} {
		code, view := del(tc.id)
		if code != tc.want {
			t.Errorf("%s: DELETE status %d, want %d", tc.name, code, tc.want)
		}
		if tc.name == "queued" && view.Status != statusCancelled {
			t.Errorf("cancelled queued run reports status %s", view.Status)
		}
	}
	if !cancelCalled {
		t.Error("cancelling a running run never invoked its context cancel")
	}
}

// TestMetricsEndpoint: /metrics speaks the Prometheus text format and
// carries every documented family, with run and duration counters that
// reflect completed work.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 1, 4)

	code, created := postSpec(t, ts, estimateSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	id := int(created["id"].(float64))
	if r := waitForRun(t, ts, id, 30*time.Second); r.Status != statusDone {
		t.Fatalf("run finished %s", r.Status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	body := sb.String()

	for _, want := range []string{
		"# TYPE lvmajority_build_info gauge",
		"lvmajority_build_info{version=\"",
		"lvmajority_queue_depth 0",
		"lvmajority_queue_capacity 4",
		"# TYPE lvmajority_runs gauge",
		`lvmajority_runs{status="done"} 1`,
		`lvmajority_runs{status="running"} 0`,
		"# TYPE lvmajority_sweep_cache_hits_total counter",
		"lvmajority_sweep_cache_misses_total",
		"lvmajority_sweep_cache_entries",
		"# TYPE lvmajority_run_duration_seconds summary",
		`lvmajority_run_duration_seconds{quantile="0.5"}`,
		"lvmajority_run_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}
