// Command serve is the HTTP facade over the declarative run API
// (internal/scenario): the first network-serving layer of the system. It
// accepts the same Specs the six CLIs print with -dump-spec, executes them
// on a bounded worker queue against one process-wide probe cache, and
// returns typed results embedding full run-manifest provenance — so a run
// over HTTP is exactly as reproducible as a run in a shell.
//
//	POST   /v1/runs              submit a Spec; returns {id, status} (202)
//	GET    /v1/runs              list run summaries
//	GET    /v1/runs/{id}         status, the spec, and (when done) the result
//	GET    /v1/runs/{id}/events  live progress as Server-Sent Events
//	DELETE /v1/runs/{id}         cancel a queued or running run (409 once finished)
//	GET    /v1/experiments       the experiment registry
//	GET    /v1/healthz           liveness, build version, queue and cache stats
//	GET    /metrics              Prometheus text exposition
//
// Specs that touch the server's filesystem (file cache policies, CSV or
// manifest output directories, the report task) are rejected with 422 —
// a remote caller must not direct the serving process's disk. Cancellation
// is real: every run executes under its own context, and Monte-Carlo tasks
// abort between trials when it is cancelled.
//
// Example:
//
//	serve -addr :8080 -runners 2 -queue 64 &
//	experiments -dump-spec T1-SD | curl -s -d @- localhost:8080/v1/runs
//	curl -s localhost:8080/v1/runs/1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lvmajority/internal/durable"
	"lvmajority/internal/experiment"
	"lvmajority/internal/fabric"
	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

func main() {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		runners  = fs.Int("runners", 2, "concurrent run executors")
		queue    = fs.Int("queue", 64, "maximum queued (not yet running) runs; further submissions get 503")
		history  = fs.Int("history", 1024, "finished runs retained for GET /v1/runs/{id}; the oldest are evicted beyond this")
		maxBody  = fs.Int64("max-body", 1<<20, "maximum request body size in bytes")
		_        = fs.String("bench-trajectory", "", "deprecated and ignored; /metrics exports no per-kernel gauges")
		journal  = fs.String("journal", "", "directory persisting queued/running run specs across restarts; empty disables the journal")
		fleet    = fs.Bool("fleet", false, "act as a fabric coordinator: accept worker registrations, shard Monte-Carlo windows across the fleet, and serve the shared probe cache at /fabric/v1/cache")
		shardTr  = fs.Int("shard-trials", 0, "largest trial window dispatched as one fleet shard (0 = default); never changes results")
		lease    = fs.Duration("lease", 0, "fleet worker lease TTL (0 = default)")
		showVers = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *showVers {
		fmt.Println(scenario.Version())
		return
	}

	logger := log.New(os.Stderr, "serve: ", log.LstdFlags)
	srv := newServer(*runners, *queue, *maxBody, logger)
	srv.history = *history
	if *journal != "" {
		if err := srv.attachJournal(*journal); err != nil {
			logger.Fatal(err)
		}
	}
	if *fleet {
		// The coordinator shares the runner's probe cache (fleet pushes land
		// where local sweeps look) and the journal directory (worker
		// registrations recover alongside run specs).
		coord, err := fabric.New(fabric.Config{
			ShardTrials: *shardTr,
			LeaseTTL:    *lease,
			Cache:       srv.runner.Cache,
			JournalDir:  *journal,
			Logger:      logger,
		})
		if err != nil {
			logger.Fatal(err)
		}
		srv.fleet = coord
		srv.runner.Probes = coord.Probes()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (%d runners, queue %d, %s)", ln.Addr(), *runners, *queue, scenario.Version())

	httpSrv := &http.Server{Handler: srv.routes()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
		srv.stop()
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	srv.wait()
}

// runStatus is the lifecycle of one submitted run.
type runStatus string

const (
	statusQueued    runStatus = "queued"
	statusRunning   runStatus = "running"
	statusDone      runStatus = "done"
	statusFailed    runStatus = "failed"
	statusCancelled runStatus = "cancelled"
)

// run is one submitted spec and its lifecycle.
type run struct {
	ID     int              `json:"id"`
	Status runStatus        `json:"status"`
	Spec   scenario.Spec    `json:"spec"`
	Result *scenario.Result `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
	// Detail classifies a failure ("panic", "timeout", "interrupted") so
	// clients can distinguish failure modes without parsing Error.
	Detail string `json:"detail,omitempty"`
	// Submitted, Started and Finished are RFC 3339 UTC timestamps; empty
	// until the run reaches that stage.
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`

	cancel context.CancelFunc
	// events carries the run's progress stream from submission to terminal
	// state; SSE subscribers attach to it at any point in the lifecycle and
	// get the bounded replay plus live events. It is created at submission
	// and closed exactly once, when the run reaches a terminal status.
	events *progress.Broadcaster
}

// summary is the list-endpoint view of a run.
type summary struct {
	ID        int       `json:"id"`
	Status    runStatus `json:"status"`
	Task      string    `json:"task"`
	Submitted string    `json:"submitted,omitempty"`
	Finished  string    `json:"finished,omitempty"`
}

// server executes submitted specs on a bounded worker pool.
type server struct {
	runner  *scenario.Runner
	logger  *log.Logger
	maxBody int64
	// history bounds how many finished runs are retained; beyond it the
	// oldest finished runs (and their results) are evicted so memory
	// stays bounded under sustained traffic. Queued and running runs are
	// never evicted.
	history int

	mu     sync.Mutex
	runs   map[int]*run
	order  []int
	nextID int

	queue    chan *run
	baseCtx  context.Context
	stopBase context.CancelFunc
	workers  sync.WaitGroup
	// journal persists queued/running run specs so a crashed or restarted
	// server can account for them; nil (the default) disables journaling.
	// Its methods are nil-safe. Guarded by mu wherever runs are mutated.
	journal *durable.Journal

	// heartbeat is the SSE idle-tick interval and throttle the minimum gap
	// between forwarded trial snapshots per stream; tests shrink both.
	heartbeat time.Duration
	throttle  time.Duration
	// durations sketches the wall time of finished runs for the /metrics
	// summary; durSum tracks the exact total alongside it. Guarded by mu.
	durations *stats.QuantileSketch
	durSum    float64
	// fleet is the fabric coordinator in -fleet mode; nil otherwise. When
	// set, the runner's probe estimates shard across registered workers and
	// the /fabric/v1 endpoints are mounted.
	fleet *fabric.Coordinator
}

// newServer builds a server with its worker pool started.
func newServer(runners, queueDepth int, maxBody int64, logger *log.Logger) *server {
	if runners < 1 {
		runners = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	baseCtx, stopBase := context.WithCancel(context.Background())
	s := &server{
		runner:   &scenario.Runner{Cache: sweep.NewCache(), Log: logger.Writer()},
		logger:   logger,
		maxBody:  maxBody,
		history:  1024,
		runs:     make(map[int]*run),
		nextID:   1,
		queue:    make(chan *run, queueDepth),
		baseCtx:  baseCtx,
		stopBase: stopBase,

		heartbeat: 15 * time.Second,
		throttle:  100 * time.Millisecond,
		durations: stats.NewQuantileSketch(0),
	}
	for i := 0; i < runners; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// stop cancels every in-flight run and stops accepting queued work.
func (s *server) stop() {
	s.stopBase()
	close(s.queue)
}

// wait blocks until the workers have drained.
func (s *server) wait() { s.workers.Wait() }

func (s *server) worker() {
	defer s.workers.Done()
	for r := range s.queue {
		s.execute(r)
	}
}

func (s *server) execute(r *run) {
	s.mu.Lock()
	if r.Status != statusQueued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	r.Status = statusRunning
	r.Started = now()
	r.cancel = cancel
	spec := r.Spec
	s.journalRecord(r)
	s.mu.Unlock()
	defer cancel()
	r.events.Publish(progress.Event{Kind: progress.KindPhase, Scope: runScope(r.ID), Phase: string(statusRunning)})

	// Engine events flow into the run's broadcaster through a throttle so
	// every SSE subscriber sees strictly increasing trial counters.
	started := time.Now()
	res, err := s.runner.RunWithProgress(ctx, spec, progress.Throttled(r.events.Publish, s.throttle))
	elapsed := time.Since(started).Seconds()

	s.mu.Lock()
	r.Finished = now()
	r.cancel = nil
	switch {
	case err == nil:
		r.Status = statusDone
		r.Result = res
	case errors.Is(err, context.Canceled):
		r.Status = statusCancelled
		r.Error = err.Error()
		r.Detail = scenario.FailureDetail(err)
	default:
		r.Status = statusFailed
		r.Error = err.Error()
		r.Detail = scenario.FailureDetail(err)
	}
	s.journal.Remove(strconv.Itoa(r.ID))
	terminal := progress.Event{Kind: progress.KindPhase, Scope: runScope(r.ID), Phase: string(r.Status), Err: r.Error, Detail: r.Detail}
	s.durations.Add(elapsed)
	s.durSum += elapsed
	s.evictLocked()
	s.logger.Printf("run %d %s (%s task)", r.ID, r.Status, r.Spec.Task)
	s.mu.Unlock()
	r.events.Publish(terminal)
	r.events.Close()
}

// evictLocked drops the oldest finished runs beyond the history bound so
// retained results cannot grow without bound. Callers hold s.mu.
func (s *server) evictLocked() {
	finished := 0
	for _, id := range s.order {
		switch s.runs[id].Status {
		case statusDone, statusFailed, statusCancelled:
			finished++
		}
	}
	if finished <= s.history {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		r := s.runs[id]
		evictable := r.Status == statusDone || r.Status == statusFailed || r.Status == statusCancelled
		if evictable && finished > s.history {
			delete(s.runs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func now() string { return time.Now().UTC().Format(time.RFC3339) }

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.fleet != nil {
		s.fleet.Routes(mux)
	}
	return mux
}

// httpError is the uniform JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.maxBody))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "reading body: %v", err)
		return
	}
	// A client that disconnected mid-POST gets nothing enqueued on its
	// behalf: the spec may have arrived truncated, and nobody is left to
	// read the run ID, so executing it would only burn worker time.
	if err := req.Context().Err(); err != nil {
		s.logger.Printf("submit aborted: client disconnected: %v", err)
		return
	}
	spec, err := scenario.ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if paths := spec.LocalPaths(); len(paths) > 0 {
		httpError(w, http.StatusUnprocessableEntity,
			"spec touches the server's filesystem (%s); use the CLIs for file-writing runs", strings.Join(paths, ", "))
		return
	}
	if spec.Task == scenario.TaskReport {
		httpError(w, http.StatusUnprocessableEntity, "the report task is CLI-only")
		return
	}
	if spec.Cache != nil && spec.Cache.Policy == scenario.CacheRemote {
		// The serving process IS the remote cache: submitted runs use the
		// shared cache directly, and a spec pointing the server at another
		// cache URL would make run results depend on an outside service.
		httpError(w, http.StatusUnprocessableEntity,
			"the remote cache policy is for CLI and worker runs; submitted runs share the server's cache (use policy \"shared\")")
		return
	}

	// Registration and the non-blocking enqueue happen under one lock so a
	// worker can never observe (or mutate) a run the submitter still reads.
	s.mu.Lock()
	r := &run{ID: s.nextID, Status: statusQueued, Spec: spec, Submitted: now(), events: progress.NewBroadcaster()}
	select {
	case s.queue <- r:
	default:
		s.mu.Unlock()
		// Queue pressure is transient by construction (bounded queue,
		// draining workers); tell well-behaved clients when to come back.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "queue full (%d queued); retry later", cap(s.queue))
		return
	}
	s.nextID++
	s.runs[r.ID] = r
	s.order = append(s.order, r.ID)
	s.journalRecord(r)
	id := r.ID
	// Published before the lock is released: a worker that dequeues the run
	// publishes "running" only after it takes s.mu, so the stream always
	// opens with the queued phase.
	r.events.Publish(progress.Event{Kind: progress.KindPhase, Scope: runScope(id), Phase: string(statusQueued)})
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     id,
		"status": statusQueued,
		"url":    fmt.Sprintf("/v1/runs/%d", id),
	})
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]summary, 0, len(s.order))
	for _, id := range s.order {
		r := s.runs[id]
		out = append(out, summary{
			ID: r.ID, Status: r.Status, Task: string(r.Spec.Task),
			Submitted: r.Submitted, Finished: r.Finished,
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (s *server) lookup(w http.ResponseWriter, req *http.Request) *run {
	var id int
	if _, err := fmt.Sscanf(req.PathValue("id"), "%d", &id); err != nil {
		httpError(w, http.StatusBadRequest, "bad run id %q", req.PathValue("id"))
		return nil
	}
	s.mu.Lock()
	r := s.runs[id]
	s.mu.Unlock()
	if r == nil {
		httpError(w, http.StatusNotFound, "no run %d", id)
		return nil
	}
	return r
}

func (s *server) handleGet(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	s.mu.Lock()
	view := *r
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, &view)
}

// handleCancel cancels a live run. The lifecycle matrix is strict: unknown
// runs are 404 (from lookup), finished runs — done, failed, already
// cancelled — are 409 so a caller can distinguish "I stopped it" from "it
// was already over", and only queued or running runs answer 200.
func (s *server) handleCancel(w http.ResponseWriter, req *http.Request) {
	r := s.lookup(w, req)
	if r == nil {
		return
	}
	s.mu.Lock()
	var terminal *progress.Event
	switch r.Status {
	case statusQueued:
		r.Status = statusCancelled
		r.Finished = now()
		s.journal.Remove(strconv.Itoa(r.ID))
		terminal = &progress.Event{Kind: progress.KindPhase, Scope: runScope(r.ID), Phase: string(statusCancelled)}
		s.evictLocked()
	case statusRunning:
		if r.cancel != nil {
			r.cancel()
		}
	default: // done, failed, cancelled: nothing left to cancel
		st := r.Status
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "run %d already %s", r.ID, st)
		return
	}
	view := *r
	s.mu.Unlock()
	if terminal != nil {
		r.events.Publish(*terminal)
		r.events.Close()
	}
	writeJSON(w, http.StatusOK, &view)
}

func (s *server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID        string `json:"id"`
		Title     string `json:"title"`
		Artifact  string `json:"artifact"`
		QuickGrid string `json:"quick_grid"`
		FullGrid  string `json:"full_grid"`
	}
	var out []entry
	for _, e := range experiment.All() {
		out = append(out, entry{e.ID, e.Title, e.Artifact, e.QuickGrid, e.FullGrid})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[runStatus]int{}
	for _, r := range s.runs {
		counts[r.Status]++
	}
	s.mu.Unlock()
	hits, misses := s.runner.Cache.Counters()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"version":    scenario.Version(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"runs": map[string]int{
			"queued":    counts[statusQueued],
			"running":   counts[statusRunning],
			"done":      counts[statusDone],
			"failed":    counts[statusFailed],
			"cancelled": counts[statusCancelled],
		},
		"cache": map[string]any{
			"entries": s.runner.Cache.Len(),
			"hits":    hits,
			"misses":  misses,
		},
	})
}
