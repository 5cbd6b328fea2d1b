// Package sweep computes whole threshold curves Ψ(n) as one orchestrated
// job instead of independent cold searches. Three mechanisms stack on top
// of consensus.FindThreshold:
//
//   - Warm starting. The grid runs as one chain in ascending n, and the
//     bracket for each n is seeded from the threshold found at the previous
//     n. Since Ψ(n) is monotone in n, an accurate seed replaces the
//     exponential bracketing phase with one or two confirmation probes.
//   - Caching. Every probe is memoized within a search (consensus layer)
//     and recorded in an optional persistent Cache keyed by (protocol, n,
//     delta, seed, trials, target, early-stop), so re-running a sweep —
//     or a CLI — replays settled probes without spending a single trial.
//   - Parallelism. Every probe fans its trials out on the internal/mc pool,
//     which splits even a narrow window across all workers.
//
// Determinism: probes draw from streams keyed by (seed, gap, trial index),
// so a probe's estimate is bit-identical regardless of worker count or
// whether it was replayed from the cache. The search path (and with it the
// probe count) depends on warm starting, but when the probe outcomes are
// monotone in the gap — the assumption FindThreshold is built on — the
// returned thresholds are identical to a cold serial search's.
package sweep

import (
	"fmt"
	"slices"

	"lvmajority/internal/consensus"
	"lvmajority/internal/progress"
	"lvmajority/internal/stats"
)

// CacheKeyer lets a protocol provide a cache identity richer than its
// display name. Protocols whose Name can be overridden independently of
// their dynamics (e.g. consensus.LVProtocol's Label) should implement it so
// that changing the underlying parameters invalidates cached probes.
type CacheKeyer interface {
	CacheKey() string
}

// protocolIdentity returns the string identifying p in cache keys: its
// CacheKey when implemented, else its Name. Callers reusing one cache file
// across protocol redefinitions that keep both unchanged must clear the
// cache themselves.
func protocolIdentity(p consensus.Protocol) string {
	if ck, ok := p.(CacheKeyer); ok {
		return ck.CacheKey()
	}
	return p.Name()
}

// Options configure a threshold sweep.
type Options struct {
	// Grid is the set of population sizes; it is sorted ascending and
	// deduplicated before the sweep runs.
	Grid []int
	// Target is the success probability defining the threshold; zero
	// selects the paper's per-n criterion 1 − 1/n.
	Target float64
	// Trials is the Monte-Carlo budget per probed gap (default 2000).
	Trials int
	// TrialsFor overrides Trials per population size when non-nil.
	TrialsFor func(n int) int
	// Workers is the parallel worker budget of every probe (default
	// GOMAXPROCS).
	Workers int
	// Seed is the root seed.
	Seed uint64
	// SeedFor derives the per-population root seed when non-nil; the
	// default is Seed + n, matching the repository's historical callers.
	SeedFor func(n int) uint64
	// MaxDelta caps each search (0 = n−2, see consensus.ThresholdOptions).
	MaxDelta int
	// Cold disables warm starting: every search brackets from scratch.
	// Useful for diagnostics and benchmarks.
	Cold bool
	// NoEarlyStop disables the sequential estimator, probing every gap
	// with the full fixed-size trial budget.
	NoEarlyStop bool
	// Cache, when non-nil, serves settled probes and records fresh ones.
	// Run saves it before returning.
	Cache *Cache
	// Estimator, when non-nil, builds the per-gap probe estimator for one
	// population size instead of consensus.DefaultEstimator — the seam the
	// distributed fabric uses to farm a probe's trial windows out to a
	// worker fleet. The sweep's memoization and persistent cache layer on
	// top unchanged, so cache keys and replay behaviour are identical to
	// the local estimator's. The returned estimator must be deterministic
	// in its arguments (same contract as consensus.ThresholdOptions
	// .Estimator); target and earlyStop arrive already resolved.
	Estimator func(p consensus.Protocol, n int, target float64, earlyStop bool) consensus.ProbeEstimator
	// Interrupt, when non-nil, is polled between trials of every fresh
	// probe; a non-nil return aborts the sweep with that error. Probes
	// already settled (and cached) are kept, so an interrupted sweep can
	// be resumed without repaying their Monte-Carlo cost. It never affects
	// results while it returns nil.
	Interrupt func() error
	// Log, when non-nil, receives one progress line per settled point.
	Log func(format string, args ...any)
	// Progress, when non-nil, receives the sweep's observation stream:
	// probe-start and probe events around every threshold probe (with cache
	// provenance), a point event per settled population size, and the trial
	// and estimate snapshots of every fresh probe, all annotated with the
	// point's N. Observation-only: attaching a hook never changes results.
	Progress progress.Hook
}

// Point is the sweep result for one population size.
type Point struct {
	consensus.ThresholdResult
	// Probes is the number of distinct gaps the search evaluated.
	Probes int
	// EstimatorCalls counts probes that actually ran trials; probes
	// served by the cache are excluded.
	EstimatorCalls int
	// CacheHits counts probes replayed from the cache.
	CacheHits int
}

// Result is the outcome of a sweep: one Point per grid entry, in grid
// order, plus aggregate probe accounting.
type Result struct {
	// Protocol is the swept protocol's name.
	Protocol string
	// Points holds one entry per grid population size, ascending.
	Points []Point
	// Probes, EstimatorCalls and CacheHits aggregate the per-point
	// counters.
	Probes         int
	EstimatorCalls int
	CacheHits      int
}

// Curve converts the sweep result to the consensus package's curve-point
// representation, e.g. for FitCurve.
func (r Result) Curve() []consensus.CurvePoint {
	pts := make([]consensus.CurvePoint, len(r.Points))
	for i, p := range r.Points {
		pts[i] = consensus.CurvePoint{N: p.N, Threshold: p.Threshold, Found: p.Found}
	}
	return pts
}

func (o Options) trialsFor(n int) int {
	if o.TrialsFor != nil {
		return o.TrialsFor(n)
	}
	if o.Trials > 0 {
		return o.Trials
	}
	return 2000
}

func (o Options) seedFor(n int) uint64 {
	if o.SeedFor != nil {
		return o.SeedFor(n)
	}
	return o.Seed + uint64(n)
}

func (o Options) targetFor(n int) float64 {
	if o.Target > 0 {
		return o.Target
	}
	return 1 - 1/float64(n)
}

// Run sweeps the threshold curve of p over the grid and returns one point
// per population size. The first error aborts the sweep.
func Run(p consensus.Protocol, opts Options) (Result, error) {
	if p == nil {
		return Result{}, fmt.Errorf("sweep: nil protocol")
	}
	if len(opts.Grid) == 0 {
		return Result{}, fmt.Errorf("sweep: empty population grid")
	}
	grid := append([]int(nil), opts.Grid...)
	slices.Sort(grid)
	grid = slices.Compact(grid)

	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	res := Result{Protocol: p.Name(), Points: make([]Point, len(grid))}
	if err := runChain(p, grid, opts, logf, &res); err != nil {
		// Best effort: keep the probes already settled so a retry does
		// not repay their Monte-Carlo cost.
		if opts.Cache != nil {
			if saveErr := opts.Cache.Save(); saveErr != nil {
				err = fmt.Errorf("%w (additionally, saving the probe cache failed: %v)", err, saveErr)
			}
		}
		return res, err
	}
	for _, pt := range res.Points {
		res.Probes += pt.Probes
		res.EstimatorCalls += pt.EstimatorCalls
		res.CacheHits += pt.CacheHits
	}
	if opts.Cache != nil {
		// Losing persistence never fails a computed sweep: the results in
		// hand are correct regardless of whether the cache reached disk.
		if err := opts.Cache.Save(); err != nil {
			logf("sweep: saving probe cache failed (results unaffected): %v", err)
		}
	}
	return res, nil
}

// runChain runs the grid's searches in ascending n, each hinted by the
// previous threshold, and fills res.Points.
func runChain(p consensus.Protocol, grid []int, opts Options, logf func(string, ...any), res *Result) (err error) {
	// A panic escaping a search (an engine defect below the mc recovery
	// boundary, or an injected probe-flush fault) must fail the sweep,
	// not the process: settled probes stay checkpointed, and the caller
	// gets an error.
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("sweep: panic: %v", v)
		}
	}()
	hint := 0
	for i, n := range grid {
		pt, err := runPoint(p, n, hint, opts, logf)
		if err != nil {
			return fmt.Errorf("sweep: threshold search at n=%d: %w", n, err)
		}
		res.Points[i] = pt
		logf("sweep %s: n=%d threshold=%d (%d probes, %d fresh, %d cached)",
			res.Protocol, n, pt.Threshold, pt.Probes, pt.EstimatorCalls, pt.CacheHits)
		if !opts.Cold && pt.Found {
			hint = pt.Threshold
		}
	}
	return nil
}

// runPoint runs the warm-started, cache-backed threshold search for one
// population size.
func runPoint(p consensus.Protocol, n, hint int, opts Options, logf func(string, ...any)) (Point, error) {
	target := opts.targetFor(n)
	trials := opts.trialsFor(n)
	seed := opts.seedFor(n)
	earlyStop := !opts.NoEarlyStop
	inner := consensus.DefaultEstimator(p, n, target, earlyStop)
	if opts.Estimator != nil {
		inner = opts.Estimator(p, n, target, earlyStop)
	}

	identity := protocolIdentity(p)

	// The sweep owns probe-level observation: it alone knows whether a
	// probe was served by the cache. Nested trial/estimate snapshots from
	// fresh probes are annotated with this point's N on the way out.
	hook := opts.Progress
	var pointHook progress.Hook
	if hook != nil {
		pointHook = func(e progress.Event) {
			if e.N == 0 {
				e.N = n
			}
			hook(e)
		}
	}

	var fresh, hits int
	estimator := func(delta int, eopts consensus.EstimateOptions) (stats.BernoulliEstimate, error) {
		key := Key{
			Protocol:  identity,
			N:         n,
			Delta:     delta,
			Seed:      seed,
			Trials:    trials,
			Target:    target,
			EarlyStop: earlyStop,
		}
		pointHook.Emit(progress.Event{Kind: progress.KindProbeStart, N: n, Delta: delta})
		if opts.Cache != nil {
			if est, ok := opts.Cache.Get(key); ok {
				hits++
				emitProbe(pointHook, n, delta, est, true)
				return est, nil
			}
		}
		est, err := inner(delta, eopts)
		if err != nil {
			return est, err
		}
		fresh++
		if opts.Cache != nil {
			opts.Cache.Put(key, est)
			// Checkpoint at the probe boundary: a process killed at any
			// instant resumes from the settled probes already on disk. A
			// checkpoint that cannot be persisted (even after retries) is a
			// lost optimization, not a failed probe — the estimate in hand
			// is correct either way.
			if err := opts.Cache.Checkpoint(); err != nil {
				logf("sweep: probe cache checkpoint failed (continuing without persistence): %v", err)
			}
		}
		emitProbe(pointHook, n, delta, est, false)
		return est, nil
	}

	res, err := consensus.FindThreshold(p, n, consensus.ThresholdOptions{
		Target:    target,
		Trials:    trials,
		Workers:   opts.Workers,
		Seed:      seed,
		MaxDelta:  opts.MaxDelta,
		EarlyStop: earlyStop,
		Hint:      hint,
		Estimator: estimator,
		Interrupt: opts.Interrupt,
		Progress:  pointHook,
	})
	if err != nil {
		return Point{}, err
	}
	pointHook.Emit(progress.Event{Kind: progress.KindPoint, N: n, Threshold: res.Threshold, Found: res.Found})
	return Point{
		ThresholdResult: res,
		Probes:          len(res.Evaluations),
		EstimatorCalls:  fresh,
		CacheHits:       hits,
	}, nil
}

// emitProbe publishes one settled-probe event with cache provenance.
func emitProbe(h progress.Hook, n, delta int, est stats.BernoulliEstimate, cached bool) {
	if h == nil {
		return
	}
	e := est
	h(progress.Event{Kind: progress.KindProbe, N: n, Delta: delta, Estimate: &e, Cached: cached})
}
