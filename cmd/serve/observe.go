package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
)

// This file is the server's observability surface: the per-run SSE event
// stream and the Prometheus /metrics endpoint. Both read the same
// progress.Broadcaster the run's execution publishes into, so what an
// operator watches is exactly what the engines emitted — and because hooks
// are observation-only by construction, watching a run cannot change it.

// runScope names a run's lifecycle events in the stream.
func runScope(id int) string { return fmt.Sprintf("run-%d", id) }

// terminalStatus reports whether st ends a run's lifecycle.
func terminalStatus(st runStatus) bool {
	return st == statusDone || st == statusFailed || st == statusCancelled
}

// handleEvents streams a run's progress as Server-Sent Events: first the
// broadcaster's bounded replay (so a subscriber joining mid-run sees the
// lifecycle so far), then live events, with heartbeats while idle. Each SSE
// message's event field is the progress kind and its data field the Event as
// JSON. Trial counters are strictly increasing per (scope, n, delta) stream
// — the publisher is throttled — and the stream always ends with a terminal
// phase event (done, failed, or cancelled) matching GET /v1/runs/{id}, even
// if the subscriber's buffer overflowed: the handler synthesizes it from the
// run record when the broadcaster closes without one.
func (s *server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.mu.Lock()
	b := r.events
	id := r.ID
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, cancelSub := b.Subscribe()
	defer cancelSub()
	heartbeat := time.NewTicker(s.heartbeat)
	defer heartbeat.Stop()

	sawTerminal := false
	for {
		select {
		case <-req.Context().Done():
			return
		case e, open := <-ch:
			if !open {
				if !sawTerminal {
					s.mu.Lock()
					st := r.Status
					errMsg := r.Error
					s.mu.Unlock()
					writeSSE(w, progress.Event{
						Kind: progress.KindPhase, Scope: runScope(id),
						Phase: string(st), Err: errMsg,
					})
					fl.Flush()
				}
				return
			}
			if e.Kind == progress.KindPhase && e.Scope == runScope(id) && terminalStatus(runStatus(e.Phase)) {
				sawTerminal = true
			}
			writeSSE(w, e)
			fl.Flush()
		case <-heartbeat.C:
			writeSSE(w, progress.Event{Kind: progress.KindHeartbeat, Scope: runScope(id)})
			fl.Flush()
		}
	}
}

// writeSSE writes one Server-Sent Event frame.
func writeSSE(w http.ResponseWriter, e progress.Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
}

// handleMetrics exposes fleet health in the Prometheus text format, written
// by hand since the server takes no dependencies beyond the standard
// library: build info, queue depth against capacity, runs by state, sweep
// probe-cache traffic, run-duration quantiles from the merging digest, and
// in fleet mode the coordinator's counters.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[runStatus]int{}
	for _, r := range s.runs {
		counts[r.Status]++
	}
	type q struct {
		label string
		value float64
	}
	var quantiles []q
	for _, p := range []struct {
		label string
		v     float64
	}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}} {
		if v, err := s.durations.Quantile(p.v); err == nil {
			quantiles = append(quantiles, q{p.label, v})
		}
	}
	durSum, durCount := s.durSum, int64(s.durations.N())
	s.mu.Unlock()
	hits, misses := s.runner.Cache.Counters()

	var sb strings.Builder
	family := func(name, help, typ string) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	family("lvmajority_build_info", "Build metadata; constant 1.", "gauge")
	fmt.Fprintf(&sb, "lvmajority_build_info{version=%q,go=%q} 1\n", scenario.Version(), runtime.Version())

	family("lvmajority_queue_depth", "Runs queued and not yet started.", "gauge")
	fmt.Fprintf(&sb, "lvmajority_queue_depth %d\n", counts[statusQueued])
	family("lvmajority_queue_capacity", "Maximum queued runs before submissions get 503.", "gauge")
	fmt.Fprintf(&sb, "lvmajority_queue_capacity %d\n", cap(s.queue))

	family("lvmajority_runs", "Retained runs by lifecycle state.", "gauge")
	for _, st := range []runStatus{statusQueued, statusRunning, statusDone, statusFailed, statusCancelled} {
		fmt.Fprintf(&sb, "lvmajority_runs{status=%q} %d\n", st, counts[st])
	}

	family("lvmajority_sweep_cache_hits_total", "Threshold probes served from the shared probe cache.", "counter")
	fmt.Fprintf(&sb, "lvmajority_sweep_cache_hits_total %d\n", hits)
	family("lvmajority_sweep_cache_misses_total", "Threshold probes that ran fresh trials.", "counter")
	fmt.Fprintf(&sb, "lvmajority_sweep_cache_misses_total %d\n", misses)
	family("lvmajority_sweep_cache_entries", "Settled probes retained in the shared probe cache.", "gauge")
	fmt.Fprintf(&sb, "lvmajority_sweep_cache_entries %d\n", s.runner.Cache.Len())

	family("lvmajority_run_duration_seconds", "Wall time of finished runs (merging quantile sketch).", "summary")
	for _, p := range quantiles {
		fmt.Fprintf(&sb, "lvmajority_run_duration_seconds{quantile=%q} %g\n", p.label, p.value)
	}
	fmt.Fprintf(&sb, "lvmajority_run_duration_seconds_sum %g\n", durSum)
	fmt.Fprintf(&sb, "lvmajority_run_duration_seconds_count %d\n", durCount)

	if s.fleet != nil {
		st := s.fleet.FleetStats()
		family("lvmajority_fleet_workers", "Registered fabric workers by lease state.", "gauge")
		fmt.Fprintf(&sb, "lvmajority_fleet_workers{state=\"live\"} %d\n", st.WorkersLive)
		fmt.Fprintf(&sb, "lvmajority_fleet_workers{state=\"expired\"} %d\n", st.WorkersExpired)
		family("lvmajority_fleet_shards_in_flight", "Trial windows currently dispatched to workers.", "gauge")
		fmt.Fprintf(&sb, "lvmajority_fleet_shards_in_flight %d\n", st.InFlightShards)
		family("lvmajority_fleet_shards_dispatched_total", "Trial windows dispatched to fabric workers.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_shards_dispatched_total %d\n", st.ShardsDispatched)
		family("lvmajority_fleet_shards_local_total", "Trial windows executed locally because no worker was available.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_shards_local_total %d\n", st.ShardsLocal)
		family("lvmajority_fleet_reassignments_total", "Shards reassigned after a worker failed mid-window.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_reassignments_total %d\n", st.Reassignments)
		family("lvmajority_fleet_evictions_total", "Workers dropped on failure or lease expiry.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_evictions_total %d\n", st.Evictions)
		family("lvmajority_fleet_remote_cache_hits_total", "Remote cache fetches answered 304 Not Modified.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_remote_cache_hits_total %d\n", st.CacheHits)
		family("lvmajority_fleet_remote_cache_misses_total", "Remote cache fetches that shipped a full snapshot.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_remote_cache_misses_total %d\n", st.CacheMisses)
		family("lvmajority_fleet_remote_cache_merged_total", "Probe entries merged from worker cache pushes.", "counter")
		fmt.Fprintf(&sb, "lvmajority_fleet_remote_cache_merged_total %d\n", st.CacheMerges)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, sb.String())
}
