package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
)

// serve-mix drives a child cmd/serve process (default two runners) with a
// closed loop of two clients. Each pass starts a fresh server, so every pass
// begins with an empty shared probe cache, runs a fixed mix of specs, and
// stops the server.

const serveClients = 2

// mixItem is one submission of the mix.
type mixItem struct {
	kind string // estimate-lv, estimate-am, coinflip, threshold, sweep, fleet
	spec scenario.Spec
	body []byte
	// budget is the per-probe trial budget at population n, for the
	// early-stop share.
	budget func(n int) int
}

func protocolModel(name, kernel string) *scenario.Model {
	return &scenario.Model{Kind: scenario.ModelProtocol, Protocol: &scenario.ProtocolModel{Name: name, Kernel: kernel}}
}

// coinFlipModel is the SD chain with total interspecific rate equal to the
// intraspecific rate and double extinction scored as a coin flip: its exact
// majority-consensus probability is a/(a+b) at every state (Theorem 20).
func coinFlipModel() *scenario.Model {
	return &scenario.Model{Kind: scenario.ModelLV, LV: &scenario.LVModel{
		Beta: 1, Death: 1, Alpha0: 0.5, Alpha1: 0.5, Gamma0: 1, Gamma1: 1,
		Competition: "sd", Ties: "coinflip",
	}}
}

func estimateSpec(model *scenario.Model, n, delta, trials int, seed uint64) scenario.Spec {
	s := scenario.New(scenario.TaskEstimate)
	s.Model = model
	s.Seed = seed
	s.Estimate = &scenario.EstimateSpec{N: n, Delta: delta, Trials: trials}
	return s
}

// serveMix returns the fixed mix of one pass in submission order. The mix
// is a corpus of eight specs: three short estimates, an lv-nsd threshold
// and an lv-sd sweep on the shared cache, and the three specs of
// examples/fleet/specs. A pass submits each of them sz.each times: every
// spec equally often, the rule cmd/loadgen applies to its corpus.
func serveMix(cfg config, seed uint64, fleet []scenario.Spec) ([]mixItem, error) {
	type sizes struct{ lvN, lvDelta, lvTrials, amN, amDelta, cfTrials, thN, each int }
	// Four is the least each at which every cacheable spec draws from a
	// pool of more than one seed, each pair submitted twice.
	sz := sizes{1024, 12, 1000, 256, 44, 2000, 256, 4}
	sweepGrid := []int{256, 512, 1024}
	if cfg.tiny {
		sz = sizes{128, 8, 200, 64, 16, 500, 64, 2}
		sweepGrid = []int{64, 128}
	}
	src := rand.New(rand.NewSource(int64(seed)))
	var items []mixItem
	add := func(kind string, s scenario.Spec, budget func(int) int) {
		items = append(items, mixItem{kind: kind, spec: s, budget: budget})
	}
	fixed := func(t int) func(int) int { return func(int) int { return t } }
	for i := 0; i < sz.each; i++ {
		add("estimate-lv", estimateSpec(protocolModel(modelSD, ""), sz.lvN, sz.lvDelta, sz.lvTrials, src.Uint64()>>16), fixed(sz.lvTrials))
		add("estimate-am", estimateSpec(protocolModel(modelAM, scenario.KernelLockstep), sz.amN, sz.amDelta, 1024, src.Uint64()>>16), fixed(1024))
		add("coinflip", estimateSpec(coinFlipModel(), 64, 16, sz.cfTrials, src.Uint64()>>16), fixed(sz.cfTrials))
	}
	// The cacheable specs: a pool of each/2 seeds, every pair submitted
	// twice, so half of these submissions repeat a (spec, seed) pair.
	shared := &scenario.CacheSpec{Policy: scenario.CacheShared}
	for i := 0; i < sz.each/2; i++ {
		th := scenario.New(scenario.TaskThreshold)
		th.Model = protocolModel(modelNSD, "")
		th.Seed = src.Uint64() >> 16
		th.Cache = shared
		th.Threshold = &scenario.ThresholdSpec{N: sz.thN}
		sw := scenario.New(scenario.TaskSweep)
		sw.Model = protocolModel(modelSD, "")
		sw.Seed = src.Uint64() >> 16
		sw.Cache = shared
		sw.Sweep = &scenario.SweepSpec{Grid: sweepGrid}
		for r := 0; r < 2; r++ {
			add("threshold", th, fixed(2000))
			add("sweep", sw, scenario.DefaultSweepTrials)
		}
	}
	for r := 0; r < sz.each; r++ {
		for _, s := range fleet {
			budget := 1000
			switch {
			case s.Estimate != nil && s.Estimate.Trials > 0:
				budget = s.Estimate.Trials
			case s.Threshold != nil && s.Threshold.Trials > 0:
				budget = s.Threshold.Trials
			}
			add("fleet", s, fixed(budget))
		}
	}
	src.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i := range items {
		body, err := json.Marshal(items[i].spec)
		if err != nil {
			return nil, err
		}
		items[i].body = body
	}
	return items, nil
}

// loadFleetCorpus reads the committed examples/fleet/specs corpus from the
// checkout.
func loadFleetCorpus() ([]scenario.Spec, error) {
	paths, err := filepath.Glob(filepath.Join("examples", "fleet", "specs", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no specs under examples/fleet/specs (run from the root of a checkout)")
	}
	var specs []scenario.Spec
	for _, p := range paths {
		s, err := scenario.LoadSpecs(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s...)
	}
	return specs, nil
}

// serveProc is one running cmd/serve child.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	logs sync.WaitGroup
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServe starts cmd/serve on a free loopback port and returns once
// /v1/healthz answers, with the time that took.
func startServe(ctx context.Context, bin string) (*serveProc, time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-runners", "2", "-bench-trajectory=")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	sp := &serveProc{cmd: cmd}
	addr := make(chan string, 1)
	sp.logs.Add(1)
	go func() {
		defer sp.logs.Done()
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	var a string
	select {
	case a = <-addr:
	case <-time.After(20 * time.Second):
	}
	if a == "" {
		sp.stop()
		return nil, 0, fmt.Errorf("serve did not report its address")
	}
	sp.base = "http://" + a
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(sp.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 20*time.Second {
			sp.stop()
			return nil, 0, fmt.Errorf("serve healthz never answered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return sp, time.Since(start), nil
}

// stop terminates the server and waits for it and its log reader.
func (sp *serveProc) stop() {
	if sp.cmd.ProcessState != nil {
		return
	}
	sp.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sp.logs.Wait()
		sp.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		sp.cmd.Process.Kill()
		<-done
	}
}

// serveRun is the client-side record of one submission. Times are offsets
// from the pass start.
type serveRun struct {
	status   string
	t0       time.Duration
	accepted time.Duration
	running  time.Duration // -1 when the running phase was not seen
	terminal time.Duration
	fetched  time.Duration
	execNS   int64
	bytes    int
	trials   int
	// evals are the probes of a threshold or sweep result, with the
	// population size each belongs to.
	evals  []consensus.Evaluation
	evalN  []int
	points int
	// canon is the deterministic part of the result, compared across
	// repeats of the same (spec, seed).
	canon string
	est   *stats.BernoulliEstimate
	// probes are the probe-start/probe event pairs of a sweep run, by
	// receipt time.
	probes [][2]time.Duration
	// thresholds are a sweep result's Ψ(n) by n, for the points found.
	thresholds map[int]int
	err        string
}

// resultView decodes the parts of GET /v1/runs/{id} the benchmark reads.
type resultView struct {
	Status string `json:"status"`
	Error  string `json:"error"`
	Result *struct {
		Manifests []struct {
			WallTimeNS int64 `json:"wall_time_ns"`
		} `json:"manifests"`
		Estimate  *stats.BernoulliEstimate   `json:"estimate"`
		Threshold *consensus.ThresholdResult `json:"threshold"`
		Sweep     *struct {
			Points []consensus.ThresholdResult `json:"Points"`
		} `json:"sweep"`
	} `json:"result"`
}

// client runs submissions over one keep-alive connection.
type client struct {
	http  *http.Client
	base  string
	epoch time.Time
}

func newClient(base string, epoch time.Time) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		base: base, epoch: epoch,
	}
}

func (c *client) since() time.Duration { return time.Since(c.epoch) }

// do submits one spec, follows its SSE stream to the terminal phase, and
// fetches the result.
func (c *client) do(ctx context.Context, body []byte) *serveRun {
	r := &serveRun{running: -1, t0: c.since()}
	fail := func(format string, args ...any) *serveRun {
		r.err = fmt.Sprintf(format, args...)
		return r
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	var sub struct {
		ID int `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.accepted = c.since()
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		return fail("submit answered %s", resp.Status)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/runs/%d/events", c.base, sub.ID), nil)
	if err != nil {
		return fail("%v", err)
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return fail("events: %v", err)
	}
	scope := fmt.Sprintf("run-%d", sub.ID)
	open := map[[2]int]time.Duration{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := c.since()
		var e progress.Event
		if err := json.Unmarshal([]byte(data), &e); err != nil {
			continue
		}
		switch {
		case e.Kind == progress.KindPhase && e.Scope == scope && e.Phase == "running":
			r.running = at
		case e.Kind == progress.KindPhase && e.Scope == scope && (e.Phase == "done" || e.Phase == "failed" || e.Phase == "cancelled"):
			if r.terminal == 0 {
				r.terminal = at
				r.status = e.Phase
			}
		case e.Kind == progress.KindProbeStart:
			open[[2]int{e.N, e.Delta}] = at
		case e.Kind == progress.KindProbe:
			if from, ok := open[[2]int{e.N, e.Delta}]; ok {
				r.probes = append(r.probes, [2]time.Duration{from, at})
				delete(open, [2]int{e.N, e.Delta})
			}
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if r.terminal == 0 {
		return fail("event stream ended without a terminal phase")
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/runs/%d", c.base, sub.ID), nil)
	if err != nil {
		return fail("%v", err)
	}
	resp, err = c.http.Do(req)
	if err != nil {
		return fail("fetch: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.fetched = c.since()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("fetch answered %s (%v)", resp.Status, err)
	}
	r.bytes = len(raw)
	var v resultView
	if err := json.Unmarshal(raw, &v); err != nil {
		return fail("decoding result: %v", err)
	}
	if v.Status != "done" || v.Result == nil {
		return fail("run %s: %s", v.Status, v.Error)
	}
	if len(v.Result.Manifests) > 0 {
		r.execNS = v.Result.Manifests[0].WallTimeNS
	}
	var canon any
	switch {
	case v.Result.Estimate != nil:
		r.est = v.Result.Estimate
		r.trials = r.est.Trials
		canon = r.est
	case v.Result.Threshold != nil:
		r.points = 1
		for _, e := range v.Result.Threshold.Evaluations {
			r.evals = append(r.evals, e)
			r.evalN = append(r.evalN, v.Result.Threshold.N)
		}
		canon = v.Result.Threshold
	case v.Result.Sweep != nil:
		r.points = len(v.Result.Sweep.Points)
		r.thresholds = map[int]int{}
		for _, pt := range v.Result.Sweep.Points {
			if pt.Found {
				r.thresholds[pt.N] = pt.Threshold
			}
			for _, e := range pt.Evaluations {
				r.evals = append(r.evals, e)
				r.evalN = append(r.evalN, pt.N)
			}
		}
		canon = v.Result.Sweep.Points
	}
	for _, e := range r.evals {
		r.trials += e.Estimate.Trials
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return fail("encoding result: %v", err)
	}
	r.canon = string(b)
	return r
}

// servePass is the measured outcome of one pass.
type servePass struct {
	setup  time.Duration
	wall   time.Duration
	cpu    time.Duration
	rss    int64
	runs   []*serveRun
	items  []mixItem
	epoch  time.Time
	hits   float64
	misses float64
	size   int
}

// passTimeout bounds one serve pass, so a server that stops answering fails
// the run instead of hanging it.
const passTimeout = 2 * time.Minute

func runServePass(ctx context.Context, cfg config, items []mixItem) (*servePass, error) {
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	sp, setup, err := startServe(ctx, cfg.serveBin)
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	p := &servePass{setup: setup, items: items, epoch: time.Now(), runs: make([]*serveRun, len(items))}
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(sp.base, p.epoch)
			defer cl.http.CloseIdleConnections()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(items) {
					return
				}
				p.runs[i] = cl.do(ctx, items[i].body)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.epoch)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.hits, p.misses, p.size, err = scrapeCache(sp.base)
	if err != nil {
		return nil, err
	}
	// One server process serves one pass, so its lifetime resource usage,
	// read when it exits, is the pass's.
	sp.stop()
	ru, ok := sp.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("no resource usage for the serve process")
	}
	p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	p.rss = ru.Maxrss * 1024
	return p, nil
}

// scrapeCache reads the shared probe cache counters from /metrics.
func scrapeCache(base string) (hits, misses float64, size int, err error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, perr := strconv.ParseFloat(f[1], 64)
		if perr != nil {
			continue
		}
		switch f[0] {
		case "lvmajority_sweep_cache_hits_total":
			hits = v
		case "lvmajority_sweep_cache_misses_total":
			misses = v
		case "lvmajority_sweep_cache_entries":
			size = int(v)
		}
	}
	return hits, misses, size, nil
}

// serveChecker applies the output checks to every run.
type serveChecker struct {
	cfg   config
	out   *outcome
	first map[string]string // spec JSON -> canonical result
	pass  int
}

func (c *serveChecker) checkPass(p *servePass) {
	perturbed := false
	for i, r := range p.runs {
		it := p.items[i]
		if r == nil {
			c.out.check(false, "%s run %d was never submitted", it.kind, i)
			continue
		}
		if r.err != "" || r.status != "done" {
			c.out.check(false, "%s run %d: status %q: %s", it.kind, i, r.status, r.err)
			continue
		}
		if c.cfg.perturb != "" && c.pass == 1 && !perturbed {
			switch {
			case c.cfg.perturb == "estimate" && it.kind == "coinflip":
				r.est.Successes = 0
				perturbed = true
			case c.cfg.perturb == "threshold" && it.kind == "threshold":
				r.canon += " perturbed"
				perturbed = true
			}
		}
		ok, why := true, ""
		key := string(it.body)
		if prev, seen := c.first[key]; !seen {
			c.first[key] = r.canon
		} else if prev != r.canon {
			ok, why = false, "result differs from the first fresh result for the same (spec, seed)"
		}
		if ok && it.kind == "coinflip" {
			e := it.spec.Estimate
			rho := float64(e.N+e.Delta) / 2 / float64(e.N)
			se := math.Sqrt(rho * (1 - rho) / float64(r.est.Trials))
			if d := math.Abs(r.est.P() - rho); d > 5*se {
				ok, why = false, fmt.Sprintf("coin-flip estimate %.4f is %.1f standard errors from a/(a+b) = %.4f", r.est.P(), d/se, rho)
			}
		}
		c.out.check(ok, "%s run %d: %s", it.kind, i, why)
	}
	c.pass++
}

func runServeMix(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	fleet, err := loadFleetCorpus()
	if err != nil {
		return nil, err
	}
	checker := &serveChecker{cfg: cfg, out: out, first: map[string]string{}}
	if cfg.trace {
		return out, traceServe(ctx, cfg, fleet, checker)
	}

	var passes []*servePass
	start := time.Now()
	for _, seed := range serveSeeds(cfg) {
		items, err := serveMix(cfg, seed, fleet)
		if err != nil {
			return nil, err
		}
		p, err := runServePass(ctx, cfg, items)
		if err != nil {
			return nil, err
		}
		checker.checkPass(p)
		passes = append(passes, p)
	}
	elapsed := time.Since(start)

	// Every pass starts its own server, so set-up is sampled once a pass.
	var setup, walls, rss, lat []float64
	var wall, cpu time.Duration
	trials, runs := 0, 0
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		walls = append(walls, p.wall.Seconds())
		rss = append(rss, float64(p.rss)/1e6)
		wall += p.wall
		cpu += p.cpu
		runs += len(p.runs)
		for _, r := range p.runs {
			if r != nil && r.err == "" {
				trials += r.trials
				lat = append(lat, ms(r.terminal-r.t0))
			}
		}
	}
	n := float64(len(passes))
	tail := tailPercentile(len(lat))
	out.metrics["setup_s"] = quantile(setup, 0.5)
	out.metrics["wall_s"] = wall.Seconds() / n
	out.metrics["trials_per_s"] = float64(trials) / wall.Seconds()
	out.metrics["cpu_s"] = cpu.Seconds() / n
	out.metrics["max_rss_mb"] = quantile(rss, 0.5)
	out.metrics["run_p50_ms"] = quantile(lat, 0.5)
	out.metrics["run_tail_ms"] = quantile(lat, tail/100)
	out.metrics["runs_per_s"] = float64(runs) / wall.Seconds()
	out.report["passes"] = len(passes)
	out.report["measured_s"] = elapsed.Seconds()
	out.report["setup_samples_s"] = setup
	out.report["pass_wall_s"] = walls
	out.report["run_tail_percentile"] = tail
	out.report["run_samples"] = len(lat)
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix: %d passes of %d runs in %.1fs; run tail = p%g of %d runs\n",
		len(passes), len(passes[0].runs), elapsed.Seconds(), tail, len(lat))
	return out, nil
}

// serveSeeds returns the mix seeds of a run's passes. Every pass takes its
// own seeds from --seed, and the last repeats pass 0's in a fresh server.
func serveSeeds(cfg config) []uint64 {
	least := 2
	if !cfg.tiny {
		// 32 passes of the 32-run mix make 1024 runs, so p99 has ten
		// samples beyond it.
		least = 32
	}
	seeds := make([]uint64, passCount(cfg, cfg.seconds, least))
	for k := range seeds {
		seeds[k] = passSeed(cfg, k)
	}
	seeds[len(seeds)-1] = seeds[0]
	return seeds
}

// traceServe is the --trace 1 run of serve-mix: untraced reference passes
// and one traced pass on pass 0's seeds, then the serial layer calls. The
// client records the spans of the traced pass: submit, queue wait, exec and
// fetch per run, and the probes of sweep runs from their SSE events.
func traceServe(ctx context.Context, cfg config, fleet []scenario.Spec, checker *serveChecker) error {
	out := checker.out
	items, err := serveMix(cfg, passSeed(cfg, 0), fleet)
	if err != nil {
		return err
	}
	var untraced []float64
	size := 0
	for k := passCount(cfg, cfg.seconds/3, 1); k > 0; k-- {
		p, err := runServePass(ctx, cfg, items)
		if err != nil {
			return err
		}
		checker.checkPass(p)
		untraced = append(untraced, p.wall.Seconds())
		size = max(size, p.size)
	}
	p, err := runServePass(ctx, cfg, items)
	if err != nil {
		return err
	}
	checker.checkPass(p)
	size = max(size, p.size)

	tr := &tracer{epoch: p.epoch}
	root := tr.add(cfg.workload, 0, "", 0, p.wall)
	var submit, queue, exec, overhead, bodies, probeMS, self []float64
	var evals, points, trials, early float64
	for i, r := range p.runs {
		if r == nil || r.err != "" {
			continue
		}
		it := items[i]
		runID := tr.add("client.run", root, it.kind, r.t0, r.fetched)
		tr.add("serve.submit", runID, "", r.t0, r.accepted)
		execFrom := r.accepted
		if r.running >= 0 {
			tr.add("serve.queue_wait", runID, "", r.accepted, r.running)
			queue = append(queue, ms(r.running-r.accepted))
			execFrom = r.running
		}
		execID := tr.add("serve.exec", runID, "", execFrom, r.terminal)
		tr.add("serve.fetch", runID, "", r.terminal, r.fetched)
		var probes []*span
		for _, pr := range r.probes {
			id := tr.add("probe", execID, "", pr[0], pr[1])
			probes = append(probes, tr.spans[id-1])
			probeMS = append(probeMS, ms(pr[1]-pr[0]))
		}
		if len(probes) > 0 {
			es := tr.spans[execID-1]
			self = append(self, ms(es.dur()-covered(probes, es.start, es.end)))
		}
		lat := ms(r.terminal - r.t0)
		submit = append(submit, ms(r.accepted-r.t0))
		exec = append(exec, float64(r.execNS)/1e6)
		overhead = append(overhead, lat-float64(r.execNS)/1e6)
		bodies = append(bodies, float64(r.bytes))
		for j, e := range r.evals {
			trials += float64(e.Estimate.Trials)
			if e.Estimate.Trials < it.budget(r.evalN[j]) {
				early++
			}
		}
		if len(r.evals) > 0 {
			evals += float64(len(r.evals))
			points += float64(r.points)
		}
	}
	out.metrics["serve.submit_ms"] = stats.Mean(submit)
	out.metrics["serve.queue_wait_ms"] = stats.Mean(queue)
	out.metrics["serve.exec_ms"] = stats.Mean(exec)
	out.metrics["serve.overhead_ms"] = stats.Mean(overhead)
	out.metrics["serve.result_bytes"] = stats.Mean(bodies)
	out.metrics["sweep.probe_ms"] = stats.Mean(probeMS)
	out.metrics["scenario.self_ms"] = stats.Mean(self)
	out.metrics["sweep.cache_hit_ratio"] = p.hits / math.Max(p.hits+p.misses, 1)
	out.metrics["consensus.trials_per_probe"] = trials / math.Max(evals, 1)
	out.metrics["consensus.early_stop_frac"] = early / math.Max(evals, 1)
	out.metrics["consensus.probes_per_point"] = evals / math.Max(points, 1)
	out.metrics["trace.wall_s"] = p.wall.Seconds()
	out.metrics["trace.untraced_wall_s"] = quantile(untraced, 0.5)
	out.metrics["trace.overhead_s"] = p.wall.Seconds() - quantile(untraced, 0.5)
	out.metrics["trace.coverage"] = tr.coverage(root)
	out.report["untraced_pass_wall_s"] = untraced
	if err := tr.write(cfg.out, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-mix traced pass %.2fs vs untraced median %.2fs (%d passes); coverage %.4f\n",
		p.wall.Seconds(), quantile(untraced, 0.5), len(untraced), tr.coverage(root))
	// lv-sd's gap is Ψ(layerN) of the traced pass's first lv-sd sweep, read
	// from its result because the SSE stream may skip events. Neither
	// carries probe seeds, so the seeds stay the sizing ones, as do the
	// states of lv-nsd and 3-state-am, which serve-mix does not sweep.
	states := defaultStates(cfg)
	for i, r := range p.runs {
		if r == nil || items[i].kind != "sweep" {
			continue
		}
		if th, ok := r.thresholds[layerN(cfg)]; ok {
			st := states[modelSD]
			st.Delta, st.Recorded = th, true
			states[modelSD] = st
			break
		}
	}
	return layerCalls(ctx, cfg, out, states, size)
}
