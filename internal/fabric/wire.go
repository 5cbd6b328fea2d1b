// Package fabric is the distributed execution layer: a coordinator that
// shards Monte-Carlo trial windows across a fleet of registered workers and
// merges their window win-counts at exactly the batch boundaries the local
// block pool uses, so a fleet estimate is byte-identical to a single-process
// run for any worker count and any shard assignment.
//
// The determinism argument is the same one internal/mc makes for threads,
// lifted to processes: trial i draws randomness only from its own stream
// rng.NewStream(seed, i), so the win count of a window [lo, hi) is a
// location-independent integer — it does not matter which worker runs it,
// alongside what, or in which order the results come back, because integer
// sums are order-independent. The estimator control loop (fixed-size and
// early-stopping, consensus.Estimate) runs on the coordinator, so
// batch boundaries, Wilson-interval inspections, and stopping decisions are
// the exact code paths a local run executes; only the window counting is
// farmed out.
//
// Topology and endpoints:
//
//	coordinator (cmd/serve -fleet)
//	  POST   /fabric/v1/workers       register or heartbeat (lease renewal)
//	  GET    /fabric/v1/workers       list registered workers
//	  DELETE /fabric/v1/workers/{id}  deregister
//	  GET    /fabric/v1/cache         probe-cache snapshot (ETag/If-None-Match)
//	  POST   /fabric/v1/cache         merge settled probes into the cache
//	worker (cmd/worker)
//	  POST   /fabric/v1/shards        run trials [lo, hi) of one window
//	  GET    /fabric/v1/healthz       liveness, identity, build version
//
// Failure handling is lease-based: workers heartbeat by re-registering, a
// worker whose lease lapses is evicted lazily, and a shard whose dispatch or
// result exchange fails is reassigned to another worker (or run locally when
// the fleet is empty) — the shard's result is a pure function of its window,
// so reassignment can never change the estimate, only its wall time.
package fabric

import (
	"fmt"
	"net/url"
	"regexp"

	"lvmajority/internal/scenario"
)

// WorkerInfo is a worker's registration: its identity, the base URL where
// the coordinator reaches it, and capability hints. POSTing it to
// /fabric/v1/workers registers the worker and renews its lease, so the same
// body serves as the heartbeat.
type WorkerInfo struct {
	// ID names the worker; it must match workerIDPattern so it can key a
	// journal file. Re-registering an ID replaces the previous registration.
	ID string `json:"id"`
	// URL is the base URL of the worker's HTTP listener, e.g.
	// "http://10.0.0.7:9090"; the coordinator POSTs shards to
	// URL + "/fabric/v1/shards".
	URL string `json:"url"`
	// Cores is the worker's advertised parallelism (scheduling hint only;
	// results never depend on it).
	Cores int `json:"cores,omitempty"`
	// Version is the worker's build identity, recorded for operators.
	Version string `json:"version,omitempty"`
}

// workerIDPattern constrains worker IDs to filename- and metrics-safe
// characters: the ID keys a journal file (worker-<id>.json) and a Prometheus
// label, so it must not smuggle path separators or quotes.
var workerIDPattern = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// validate checks a registration body.
func (w *WorkerInfo) validate() error {
	if !workerIDPattern.MatchString(w.ID) {
		return fmt.Errorf("fabric: worker id %q must match %s", w.ID, workerIDPattern)
	}
	u, err := url.Parse(w.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fabric: worker url %q is not an absolute URL", w.URL)
	}
	return nil
}

// ShardRequest asks a worker to run trials [Lo, Hi) of one estimation
// window. The model travels with the shard so the worker builds exactly the
// protocol that the coordinator's local run would build; Seed is the
// already-derived per-gap seed, so trial rep draws only from
// rng.NewStream(Seed, rep) wherever it executes.
type ShardRequest struct {
	Model *scenario.Model `json:"model"`
	N     int             `json:"n"`
	Delta int             `json:"delta"`
	Seed  uint64          `json:"seed"`
	Lo    int             `json:"lo"`
	Hi    int             `json:"hi"`
}

// validate checks a shard request before execution.
func (r *ShardRequest) validate() error {
	if r.Model == nil {
		return fmt.Errorf("fabric: shard without a model")
	}
	if r.Hi < r.Lo || r.Lo < 0 {
		return fmt.Errorf("fabric: bad trial window [%d, %d)", r.Lo, r.Hi)
	}
	return nil
}

// ShardResult is a worker's answer: the number of successes over exactly
// Trials = Hi − Lo trials. The coordinator cross-checks Trials against the
// window it dispatched, so a torn or misrouted response is rejected and the
// shard reassigned rather than miscounted.
type ShardResult struct {
	Wins   int `json:"wins"`
	Trials int `json:"trials"`
}

// registerResponse is the coordinator's answer to a registration: the lease
// TTL tells the worker how often to heartbeat.
type registerResponse struct {
	ID           string  `json:"id"`
	LeaseSeconds float64 `json:"lease_seconds"`
	Workers      int     `json:"workers"`
	Readopted    bool    `json:"readopted,omitempty"`
	CoordVersion string  `json:"coordinator_version,omitempty"`
}
