package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/progress"
	"lvmajority/internal/rng"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// span is one timed interval of a traced pass. Offsets are from the
// tracer's epoch; Parent 0 marks the root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	Label  string             `json:"label,omitempty"`
	Seed   uint64             `json:"seed,omitempty"`
	start  time.Duration
	end    time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps the spans of a traced pass in memory. The batch workloads
// fill it from outside the program: around Runner.Run, from the Runner's
// progress events (points and estimator batches), and from a probe
// estimator factory that times every probe and, through a delegating
// protocol wrapper, every trial or trial block.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span

	// Open spans the progress hook attaches children to, and the
	// registry name of the protocol the open run sweeps.
	run      int
	runLabel string
	points   map[int]int // n -> open point span
	probes   map[int]int // n -> open probe span
	batch    map[int]time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), points: map[int]int{}, probes: map[int]int{}, batch: map[int]time.Duration{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(name, parent, nil, t.now())
}

func (t *tracer) beginLocked(name string, parent int, attrs map[string]float64, at time.Duration) int {
	s := &span{ID: len(t.spans) + 1, Parent: parent, Name: name, Attrs: attrs, start: at, end: -1}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endLocked(id, nil, t.now())
}

func (t *tracer) endLocked(id int, attrs map[string]float64, at time.Duration) {
	s := t.spans[id-1]
	s.end = at
	if len(attrs) > 0 && s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	for k, v := range attrs {
		s.Attrs[k] = v
	}
}

// add records a finished span from its start and end offsets.
func (t *tracer) add(name string, parent int, label string, from, to time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.beginLocked(name, parent, nil, from)
	t.spans[id-1].Label = label
	t.endLocked(id, nil, to)
	return id
}

func (t *tracer) beginRun(parent int, label string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run = t.beginLocked("Runner.Run", parent, nil, t.now())
	t.runLabel = label
	t.spans[t.run-1].Label = label
	return t.run
}

func (t *tracer) endRun(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	t.endLocked(id, nil, at)
	for n, p := range t.points { // a failed run leaves its point open
		t.endLocked(p, nil, at)
		delete(t.points, n)
	}
	t.run = 0
}

// hook turns the Runner's progress events into point and estimator-batch
// spans. A point span opens at its first probe and closes at its point
// event; a batch span runs from its probe's start (or the previous batch)
// to the estimate event that closes it. Events are timestamped on receipt.
func (t *tracer) hook(e progress.Event) {
	switch e.Kind {
	case progress.KindProbeStart, progress.KindPoint, progress.KindEstimate:
	default:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	switch e.Kind {
	case progress.KindProbeStart:
		if _, open := t.points[e.N]; !open && t.run != 0 {
			id := t.beginLocked("point", t.run, map[string]float64{"n": float64(e.N)}, at)
			t.points[e.N] = id
		}
	case progress.KindPoint:
		if id, open := t.points[e.N]; open {
			t.endLocked(id, map[string]float64{"threshold": float64(e.Threshold)}, at)
			delete(t.points, e.N)
		}
	case progress.KindEstimate:
		probe, open := t.probes[e.N]
		if !open {
			return
		}
		from, ok := t.batch[e.N]
		if !ok {
			from = t.spans[probe-1].start
		}
		id := t.beginLocked("estimator.batch", probe, nil, from)
		t.endLocked(id, map[string]float64{"done": float64(e.Done)}, at)
		t.batch[e.N] = at
	}
}

// probeFactory is a scenario.ProbeFactory that wraps
// consensus.DefaultEstimator — byte-equivalent, as the seam requires — and
// records one span per probe, with the time its trials or trial blocks took.
func (t *tracer) probeFactory(_ *scenario.Model, p consensus.Protocol, n int, target float64, earlyStop bool) consensus.ProbeEstimator {
	return func(delta int, opts consensus.EstimateOptions) (stats.BernoulliEstimate, error) {
		w, timed := wrapTimed(p)
		t.mu.Lock()
		parent := t.points[n]
		if parent == 0 {
			parent = t.run
		}
		id := t.beginLocked("probe", parent, nil, t.now())
		t.spans[id-1].Label = t.runLabel
		t.spans[id-1].Seed = opts.Seed
		t.probes[n] = id
		delete(t.batch, n)
		t.mu.Unlock()

		est, err := consensus.DefaultEstimator(w, n, target, earlyStop)(delta, opts)

		t.mu.Lock()
		t.endLocked(id, map[string]float64{
			"n": float64(n), "delta": float64(delta),
			"trials": float64(est.Trials), "budget": float64(opts.Trials),
			"trial_ns": float64(timed.ns.Load()), "trial_calls": float64(timed.trials.Load()),
		}, t.now())
		delete(t.probes, n)
		t.mu.Unlock()
		return est, err
	}
}

// timedProtocol delegates to a protocol and sums the wall time of its
// trials. It keeps the wrapped protocol's Name and cache identity.
type timedProtocol struct {
	inner  consensus.Protocol
	ns     atomic.Int64
	trials atomic.Int64
}

func (w *timedProtocol) Name() string { return w.inner.Name() }

// CacheKey keeps the wrapped protocol's cache identity (its CacheKey, else
// its Name), so probe caches see the same keys through the wrapper.
func (w *timedProtocol) CacheKey() string {
	if ck, ok := w.inner.(sweep.CacheKeyer); ok {
		return ck.CacheKey()
	}
	return w.inner.Name()
}

func (w *timedProtocol) Trial(n, delta int, src *rng.Source) (bool, error) {
	t0 := time.Now()
	won, err := w.inner.Trial(n, delta, src)
	w.ns.Add(int64(time.Since(t0)))
	w.trials.Add(1)
	return won, err
}

// timedBlockProtocol is timedProtocol for protocols that implement
// consensus.BlockTrialer; it times whole blocks.
type timedBlockProtocol struct {
	*timedProtocol
	bt consensus.BlockTrialer
}

func (w *timedBlockProtocol) TrialBlockLanes() int { return w.bt.TrialBlockLanes() }

func (w *timedBlockProtocol) NewTrialBlock(n, delta int) (func(seed uint64, lo, hi int, wins []bool) error, error) {
	fn, err := w.bt.NewTrialBlock(n, delta)
	if err != nil {
		return nil, err
	}
	return func(seed uint64, lo, hi int, wins []bool) error {
		t0 := time.Now()
		err := fn(seed, lo, hi, wins)
		w.ns.Add(int64(time.Since(t0)))
		w.trials.Add(int64(hi - lo))
		return err
	}, nil
}

// wrapTimed wraps p so that it implements consensus.BlockTrialer exactly
// when p does.
func wrapTimed(p consensus.Protocol) (consensus.Protocol, *timedProtocol) {
	tp := &timedProtocol{inner: p}
	if bt, ok := p.(consensus.BlockTrialer); ok {
		return &timedBlockProtocol{timedProtocol: tp, bt: bt}, tp
	}
	return tp, tp
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) named(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// descendants returns every span below id.
func (t *tracer) descendants(id int) []*span {
	var out []*span
	for _, c := range t.children(id) {
		out = append(out, c)
		out = append(out, t.descendants(c.ID)...)
	}
	return out
}

// covered returns how much of [from, to) the union of spans covers.
func covered(spans []*span, from, to time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, from), min(s.end, to)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
		} else if v.b > curB {
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// coverage is the share of the root span that its named children cover.
func (t *tracer) coverage(root int) float64 {
	r := t.spans[root-1]
	if r.dur() <= 0 {
		return 0
	}
	return float64(covered(t.children(root), r.start, r.end)) / float64(r.dur())
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if dir == "" {
		return nil
	}
	for _, s := range t.spans {
		s.Start, s.End = ms(s.start), ms(s.end)
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// traceBatch is the --trace 1 run of a batch workload: untraced reference
// passes and then one traced pass, all on pass 0's seed, followed by the
// serial layer calls at the states the traced pass probed.
func traceBatch(ctx context.Context, cfg config, runner *scenario.Runner, checker *batchChecker) error {
	out := checker.out
	seed := passSeed(cfg, 0)
	var untraced []float64
	for k := passCount(cfg, cfg.seconds/3, 1); k > 0; k-- {
		p, err := runBatchPass(ctx, cfg, runner, seed, nil)
		if err != nil {
			return err
		}
		checker.checkPass(p)
		untraced = append(untraced, p.wall.Seconds())
	}

	tr := newTracer()
	traced := &scenario.Runner{Now: runner.Now, Progress: tr.hook, Probes: tr.probeFactory}
	p, err := runBatchPass(ctx, cfg, traced, seed, tr)
	if err != nil {
		return err
	}
	checker.checkPass(p)

	root := tr.named(cfg.workload)[0]
	out.metrics["trace.wall_s"] = p.wall.Seconds()
	out.metrics["trace.untraced_wall_s"] = quantile(untraced, 0.5)
	out.metrics["trace.overhead_s"] = p.wall.Seconds() - quantile(untraced, 0.5)
	out.metrics["trace.coverage"] = tr.coverage(root.ID)
	out.report["untraced_pass_wall_s"] = untraced

	probes := tr.named("probe")
	var trials, early, probeMS, trialNS, probeNS float64
	for _, s := range probes {
		trials += s.Attrs["trials"]
		if s.Attrs["trials"] < s.Attrs["budget"] {
			early++
		}
		probeMS += ms(s.dur())
		trialNS += s.Attrs["trial_ns"]
		probeNS += float64(s.dur())
	}
	nProbes := float64(max(len(probes), 1))
	out.metrics["consensus.trials_per_probe"] = trials / nProbes
	out.metrics["consensus.early_stop_frac"] = early / nProbes
	out.metrics["sweep.probe_ms"] = probeMS / nProbes
	out.report["trial_time_share_of_probe_worker_time"] = trialNS / (probeNS * float64(runtime.NumCPU()))

	var evals, points, hits, lookups float64
	cacheSize := 0
	for _, res := range p.results {
		// A run's in-memory cache ends up holding one entry per fresh probe.
		cacheSize = max(cacheSize, res.Sweep.EstimatorCalls)
		for _, pt := range res.Sweep.Points {
			points++
			evals += float64(len(pt.Evaluations))
		}
		for _, m := range res.Manifests {
			hits += float64(m.SweepCacheHits)
			lookups += float64(m.SweepCacheHits + m.SweepCacheMisses)
		}
	}
	out.metrics["consensus.probes_per_point"] = evals / math.Max(points, 1)
	out.metrics["sweep.cache_hit_ratio"] = hits / math.Max(lookups, 1)

	var self []float64
	for _, run := range tr.named("Runner.Run") {
		var inRun []*span
		for _, d := range tr.descendants(run.ID) {
			if d.Name == "probe" {
				inRun = append(inRun, d)
			}
		}
		self = append(self, ms(run.dur()-covered(inRun, run.start, run.end)))
	}
	out.metrics["scenario.self_ms"] = stats.Mean(self)

	if err := tr.write(cfg.out, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced pass %.2fs vs untraced median %.2fs (%d passes); coverage %.4f; %d spans\n",
		cfg.workload, p.wall.Seconds(), quantile(untraced, 0.5), len(untraced), tr.coverage(root.ID), len(tr.spans))

	return layerCalls(ctx, cfg, out, statesFromTrace(cfg, tr), cacheSize)
}
