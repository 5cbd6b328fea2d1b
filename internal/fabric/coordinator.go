package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/durable"
	"lvmajority/internal/faultpoint"
	"lvmajority/internal/mc"
	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// Config configures a Coordinator. The zero value is usable: defaults are
// resolved by New.
type Config struct {
	// ShardTrials is the largest trial window dispatched as one shard
	// (default 512). Smaller shards spread better and lose less on a worker
	// failure; larger shards amortize HTTP round trips. It can never change
	// results — only the partition of [lo, hi) into order-independent sums.
	ShardTrials int
	// LeaseTTL is how long a registration stays live without a heartbeat
	// (default 15s). Workers heartbeat at a fraction of it.
	LeaseTTL time.Duration
	// Cache, when non-nil, is the probe cache served at /fabric/v1/cache —
	// typically the serving process's shared cache, so fleet members and
	// local runs settle probes into one pool. Nil disables the cache
	// endpoints' backing store (they answer with an empty set).
	Cache *sweep.Cache
	// JournalDir, when non-empty, persists worker registrations
	// (worker-<id>.json, written on registration and removed on
	// deregistration and eviction) so a restarted coordinator re-adopts
	// workers that are still alive instead of waiting for their next
	// heartbeat. Like the serve run journal it is best-effort: a failed
	// write is logged and the registration proceeds.
	JournalDir string
	// Assign overrides worker selection, for tests that need adversarial
	// shard placement: it receives the sorted IDs of the live workers and
	// the shard window, and returns the chosen ID (which must be one of
	// ids). Nil selects the least-loaded worker. Any assignment yields
	// byte-identical estimates; only wall time differs.
	Assign func(ids []string, lo, hi int) string
	// Logger receives operational events; nil discards them.
	Logger *log.Logger
	// Client issues shard and health requests; nil gets a default with a
	// generous timeout (shards run real trial workloads).
	Client *http.Client
	// MaxBody bounds request bodies on the coordinator's endpoints
	// (default 64 MiB, matching the remote cache backend's bound).
	MaxBody int64
}

// workerState is one registered worker. Guarded by Coordinator.mu.
type workerState struct {
	info     WorkerInfo
	expires  time.Time
	inFlight int
}

// workerLoad accumulates per-scope progress counters. Entries survive
// eviction and re-registration so the progress stream's trial counters stay
// strictly increasing per scope, which is the monotonicity SSE documents.
type workerLoad struct {
	assigned, done, wins int64
}

// Coordinator shards trial windows across registered workers and serves the
// fleet's shared probe cache. It is safe for concurrent use.
type Coordinator struct {
	shardTrials int
	leaseTTL    time.Duration
	cache       *sweep.Cache
	assign      func(ids []string, lo, hi int) string
	logger      *log.Logger
	client      *http.Client
	maxBody     int64
	journal     *durable.Journal
	// now is the lease clock; tests substitute it to force expiry.
	now func() time.Time

	mu      sync.Mutex
	workers map[string]*workerState
	loads   map[string]*workerLoad
	// Counters for Stats/metrics.
	shardsDispatched int64 // shards whose result a worker delivered
	shardsLocal      int64 // shards (or whole windows) run in-process
	reassignments    int64 // shards that had to move after a dispatch failure
	evictions        int64 // workers removed (lease expiry or failed exchange)
	cacheHits        int64 // /fabric/v1/cache GETs answered 304
	cacheMisses      int64 // /fabric/v1/cache GETs answered with a full body
	cacheMerges      int64 // entries adopted from /fabric/v1/cache POSTs
}

// New builds a Coordinator, replaying the worker journal when configured:
// journaled workers that still answer their healthz are re-adopted with a
// fresh lease, dead ones are dropped, and torn entries are quarantined.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ShardTrials <= 0 {
		cfg.ShardTrials = 512
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 64 << 20
	}
	c := &Coordinator{
		shardTrials: cfg.ShardTrials,
		leaseTTL:    cfg.LeaseTTL,
		cache:       cfg.Cache,
		assign:      cfg.Assign,
		logger:      cfg.Logger,
		client:      cfg.Client,
		maxBody:     cfg.MaxBody,
		now:         time.Now,
		workers:     make(map[string]*workerState),
		loads:       make(map[string]*workerLoad),
	}
	if cfg.JournalDir != "" {
		j, err := durable.OpenJournal(cfg.JournalDir, "worker-", cfg.Logger)
		if err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
		var entries []WorkerInfo
		err = j.Replay(func(id string, data []byte) error {
			var info WorkerInfo
			if err := json.Unmarshal(data, &info); err != nil {
				return err
			}
			if err := info.validate(); err != nil {
				return err
			}
			if info.ID != id {
				return fmt.Errorf("entry for worker %q names worker %q", id, info.ID)
			}
			entries = append(entries, info)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
		c.journal = j
		c.readopt(entries)
	}
	return c, nil
}

// Register upserts a worker and renews its lease. It reports whether the ID
// was previously unknown (a fresh registration rather than a heartbeat).
func (c *Coordinator) Register(info WorkerInfo) (fresh bool, err error) {
	if err := info.validate(); err != nil {
		return false, err
	}
	c.mu.Lock()
	w, known := c.workers[info.ID]
	if !known {
		w = &workerState{}
		c.workers[info.ID] = w
	}
	w.info = info
	w.expires = c.now().Add(c.leaseTTL)
	c.mu.Unlock()
	c.journal.Put(info.ID, info)
	if !known {
		c.logger.Printf("fabric: worker %s registered (%s, %d cores)", info.ID, info.URL, info.Cores)
	}
	return !known, nil
}

// Deregister removes a worker. Unknown IDs are a no-op: deregistration is
// how workers say goodbye, and saying it twice must not fail a shutdown.
func (c *Coordinator) Deregister(id string) {
	c.mu.Lock()
	_, known := c.workers[id]
	delete(c.workers, id)
	c.mu.Unlock()
	if known {
		c.journal.Remove(id)
		c.logger.Printf("fabric: worker %s deregistered", id)
	}
}

// readopt re-registers journaled workers that still answer their healthz.
// Probes run concurrently with a short per-probe timeout so a dead fleet
// cannot stall coordinator startup.
func (c *Coordinator) readopt(entries []WorkerInfo) {
	probe := &http.Client{Timeout: 3 * time.Second}
	var wg sync.WaitGroup
	for _, info := range entries {
		wg.Add(1)
		go func(info WorkerInfo) {
			defer wg.Done()
			resp, err := probe.Get(strings.TrimSuffix(info.URL, "/") + "/fabric/v1/healthz")
			if err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
			}
			if err != nil || resp.StatusCode != http.StatusOK {
				c.journal.Remove(info.ID)
				c.logger.Printf("fabric: journaled worker %s (%s) is gone; dropped", info.ID, info.URL)
				return
			}
			if _, err := c.Register(info); err != nil {
				c.journal.Remove(info.ID)
				c.logger.Printf("fabric: journaled worker %s invalid: %v", info.ID, err)
				return
			}
			c.logger.Printf("fabric: re-adopted journaled worker %s (%s)", info.ID, info.URL)
		}(info)
	}
	wg.Wait()
}

// lease picks a worker for a shard and charges the window against it, lazily
// evicting workers whose lease lapsed. It returns nil when no live worker
// remains — the caller then runs the shard in-process.
func (c *Coordinator) lease(lo, hi int) *WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	live := ids[:0]
	for _, id := range ids {
		if c.workers[id].expires.Before(now) {
			delete(c.workers, id)
			c.evictions++
			c.journal.Remove(id)
			c.logger.Printf("fabric: worker %s lease expired; evicted", id)
			continue
		}
		live = append(live, id)
	}
	if len(live) == 0 {
		return nil
	}
	var chosen string
	if c.assign != nil {
		chosen = c.assign(append([]string(nil), live...), lo, hi)
		if _, ok := c.workers[chosen]; !ok {
			chosen = live[0]
		}
	} else {
		chosen = live[0]
		for _, id := range live[1:] {
			if c.workers[id].inFlight < c.workers[chosen].inFlight {
				chosen = id
			}
		}
	}
	w := c.workers[chosen]
	w.inFlight++
	c.loadFor(WorkerScope(chosen)).assigned += int64(hi - lo)
	info := w.info
	return &info
}

// loadFor returns the cumulative progress counters of one scope. Callers
// hold c.mu.
func (c *Coordinator) loadFor(scope string) *workerLoad {
	l := c.loads[scope]
	if l == nil {
		l = &workerLoad{}
		c.loads[scope] = l
	}
	return l
}

// release returns a leased shard slot, crediting the worker's counters when
// the shard completed.
func (c *Coordinator) release(id string, completed bool, trials, wins int) (done, assigned, winsCum int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[id]; w != nil && w.inFlight > 0 {
		w.inFlight--
	}
	l := c.loadFor(WorkerScope(id))
	if completed {
		l.done += int64(trials)
		l.wins += int64(wins)
		c.shardsDispatched++
	}
	return l.done, l.assigned, l.wins
}

// evict removes a worker after a failed shard exchange and counts the
// reassignment the caller is about to perform.
func (c *Coordinator) evict(id string, reason error) {
	c.mu.Lock()
	if w := c.workers[id]; w != nil {
		if w.inFlight > 0 {
			w.inFlight--
		}
		delete(c.workers, id)
		c.evictions++
	}
	c.reassignments++
	c.mu.Unlock()
	c.journal.Remove(id)
	c.logger.Printf("fabric: worker %s evicted (%v); shard reassigned", id, reason)
}

// WorkerScope is the progress-event scope of one worker's trial stream;
// LocalScope marks shards the coordinator ran in-process. Both are non-empty
// so the scenario runner's task-scoping leaves them intact and SSE
// subscribers can attribute trials to fleet members.
func WorkerScope(id string) string { return "worker-" + id }

// LocalScope is the scope of fleet shards executed in-process (empty fleet
// or fallback after evictions).
const LocalScope = "fleet-local"

// Probes returns the probe-estimator factory that runs estimation windows on
// the fleet: the scenario runner's Runner.Probes seam. The estimator control
// loop — normalization, batch boundaries, Wilson inspections, early
// stopping — is consensus.Estimate, the same code a local run executes, and
// the fleet supplies only the window counter, so estimates are
// byte-identical to local execution for any worker count and any shard
// assignment.
func (c *Coordinator) Probes() scenario.ProbeFactory {
	return func(model *scenario.Model, p consensus.Protocol, n int, target float64, earlyStop bool) consensus.ProbeEstimator {
		return func(delta int, opts consensus.EstimateOptions) (stats.BernoulliEstimate, error) {
			opts.EarlyStop, opts.Target = earlyStop, target
			return consensus.Estimate(func(lo, hi int, mopts mc.Options) (int, error) {
				return c.countWindow(model, p, n, delta, lo, hi, mopts)
			}, p, n, delta, opts)
		}
	}
}

// countWindow counts wins over trials [lo, hi), sharding across the live
// fleet. With no live workers the whole window runs in-process through
// consensus.CountWins — the identical kernel dispatch a local estimator
// uses — so the fleet layer degrades to exactly the local path.
func (c *Coordinator) countWindow(model *scenario.Model, p consensus.Protocol, n, delta, lo, hi int, opts mc.Options) (int, error) {
	if hi <= lo {
		return 0, nil
	}
	c.mu.Lock()
	liveWorkers := len(c.workers)
	c.mu.Unlock()
	if liveWorkers == 0 || model == nil {
		return c.countLocal(p, n, delta, lo, hi, opts)
	}

	type block struct{ lo, hi int }
	var blocks []block
	for b := lo; b < hi; b += c.shardTrials {
		e := b + c.shardTrials
		if e > hi {
			e = hi
		}
		blocks = append(blocks, block{b, e})
	}
	width := 2 * liveWorkers
	if width > len(blocks) {
		width = len(blocks)
	}
	if width > 64 {
		width = 64
	}

	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, width)
		resMu    sync.Mutex
		wins     int
		firstErr error
	)
	for _, b := range blocks {
		if opts.Interrupt != nil {
			if err := opts.Interrupt(); err != nil {
				resMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				resMu.Unlock()
				break
			}
		}
		resMu.Lock()
		failed := firstErr != nil
		resMu.Unlock()
		if failed {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(b block) {
			defer wg.Done()
			defer func() { <-sem }()
			w, err := c.runBlock(model, p, n, delta, b.lo, b.hi, opts)
			resMu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			wins += w
			resMu.Unlock()
		}(b)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	return wins, nil
}

// countLocal runs a window in-process and emits its summary on the
// fleet-local scope.
func (c *Coordinator) countLocal(p consensus.Protocol, n, delta, lo, hi int, opts mc.Options) (int, error) {
	c.mu.Lock()
	c.shardsLocal++
	c.loadFor(LocalScope).assigned += int64(hi - lo)
	c.mu.Unlock()
	wins, err := consensus.CountWins(p, n, delta, lo, hi, consensus.EstimateOptions{
		Workers:   opts.Workers,
		Seed:      opts.Seed,
		Interrupt: opts.Interrupt,
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	l := c.loadFor(LocalScope)
	l.done += int64(hi - lo)
	l.wins += int64(wins)
	done, assigned, winsCum := l.done, l.assigned, l.wins
	c.mu.Unlock()
	emitWorkerTrials(opts.Progress, LocalScope, done, assigned, winsCum)
	return wins, err
}

// runBlock executes one shard, reassigning on dispatch or result failure
// until a worker delivers it or the fleet drains (then it runs in-process).
// A worker that answers with a well-formed execution error (HTTP 422) stays
// registered and the error is returned — the trial itself failed, and it
// would fail identically anywhere.
func (c *Coordinator) runBlock(model *scenario.Model, p consensus.Protocol, n, delta, lo, hi int, opts mc.Options) (int, error) {
	for {
		w := c.lease(lo, hi)
		if w == nil {
			return c.countLocal(p, n, delta, lo, hi, opts)
		}
		res, fatal, err := c.dispatch(*w, ShardRequest{Model: model, N: n, Delta: delta, Seed: opts.Seed, Lo: lo, Hi: hi})
		if err != nil {
			if fatal {
				c.release(w.ID, false, 0, 0)
				return 0, err
			}
			c.evict(w.ID, err)
			continue
		}
		done, assigned, wins := c.release(w.ID, true, res.Trials, res.Wins)
		emitWorkerTrials(opts.Progress, WorkerScope(w.ID), done, assigned, wins)
		return res.Wins, nil
	}
}

// dispatch performs one shard exchange. fatal marks errors that reassignment
// cannot fix (the worker executed the trials and they failed); all other
// errors mean the worker is unreachable or spoke garbage, and the caller
// evicts it and reassigns the shard.
func (c *Coordinator) dispatch(w WorkerInfo, req ShardRequest) (res ShardResult, fatal bool, err error) {
	if err := faultpoint.Hit(faultpoint.ShardDispatch); err != nil {
		return ShardResult{}, false, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return ShardResult{}, true, err
	}
	resp, err := c.client.Post(strings.TrimSuffix(w.URL, "/")+"/fabric/v1/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		return ShardResult{}, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return ShardResult{}, false, err
	}
	if resp.StatusCode == http.StatusUnprocessableEntity {
		// The worker ran the shard and the trials themselves failed; the
		// failure is deterministic in the spec, so surface it instead of
		// burning the fleet on reassignments.
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return ShardResult{}, true, fmt.Errorf("fabric: worker %s: %s", w.ID, e.Error)
		}
		return ShardResult{}, true, fmt.Errorf("fabric: worker %s rejected shard: %s", w.ID, resp.Status)
	}
	if resp.StatusCode != http.StatusOK {
		return ShardResult{}, false, fmt.Errorf("fabric: worker %s answered %s", w.ID, resp.Status)
	}
	if err := faultpoint.Hit(faultpoint.ShardResult); err != nil {
		return ShardResult{}, false, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return ShardResult{}, false, fmt.Errorf("fabric: worker %s result: %w", w.ID, err)
	}
	if res.Trials != req.Hi-req.Lo {
		return ShardResult{}, false, fmt.Errorf("fabric: worker %s counted %d trials for window [%d, %d)", w.ID, res.Trials, req.Lo, req.Hi)
	}
	return res, false, nil
}

// emitWorkerTrials publishes one per-scope trial summary: cumulative
// completed trials against cumulative assigned, with cumulative wins. The
// counters only grow, so downstream throttles see strictly increasing Done
// per scope.
func emitWorkerTrials(h progress.Hook, scope string, done, assigned, wins int64) {
	if h == nil {
		return
	}
	h(progress.Event{
		Kind:  progress.KindTrials,
		Scope: scope,
		Done:  done,
		Total: assigned,
		Wins:  wins,
	})
}

// WorkerView is the list-endpoint and metrics view of one registered worker.
type WorkerView struct {
	ID       string  `json:"id"`
	URL      string  `json:"url"`
	Cores    int     `json:"cores,omitempty"`
	Version  string  `json:"version,omitempty"`
	State    string  `json:"state"` // "live" or "expired" (not yet evicted)
	InFlight int     `json:"in_flight"`
	Trials   int64   `json:"trials_done"`
	LeaseSec float64 `json:"lease_seconds_left"`
}

// Workers returns the registered workers sorted by ID. Expired-but-not-yet-
// evicted workers are reported with state "expired"; listing never evicts,
// so the view is read-only.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]WorkerView, 0, len(ids))
	for _, id := range ids {
		w := c.workers[id]
		state := "live"
		left := w.expires.Sub(now).Seconds()
		if left < 0 {
			state, left = "expired", 0
		}
		out = append(out, WorkerView{
			ID: id, URL: w.info.URL, Cores: w.info.Cores, Version: w.info.Version,
			State: state, InFlight: w.inFlight, Trials: c.loadFor(WorkerScope(id)).done,
			LeaseSec: left,
		})
	}
	return out
}

// Stats is a counters snapshot for /metrics.
type Stats struct {
	WorkersLive      int
	WorkersExpired   int
	InFlightShards   int
	ShardsDispatched int64
	ShardsLocal      int64
	Reassignments    int64
	Evictions        int64
	TrialsAssigned   int64
	TrialsDone       int64
	CacheHits        int64
	CacheMisses      int64
	CacheMerges      int64
}

// FleetStats snapshots the coordinator's counters.
func (c *Coordinator) FleetStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	s := Stats{
		ShardsDispatched: c.shardsDispatched,
		ShardsLocal:      c.shardsLocal,
		Reassignments:    c.reassignments,
		Evictions:        c.evictions,
		CacheHits:        c.cacheHits,
		CacheMisses:      c.cacheMisses,
		CacheMerges:      c.cacheMerges,
	}
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := c.workers[id]
		if w.expires.Before(now) {
			s.WorkersExpired++
		} else {
			s.WorkersLive++
		}
		s.InFlightShards += w.inFlight
	}
	scopes := make([]string, 0, len(c.loads))
	for scope := range c.loads {
		scopes = append(scopes, scope)
	}
	sort.Strings(scopes)
	for _, scope := range scopes {
		s.TrialsAssigned += c.loads[scope].assigned
		s.TrialsDone += c.loads[scope].done
	}
	return s
}
