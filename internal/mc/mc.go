// Package mc is the shared parallel Monte-Carlo replication harness: it
// runs many independent replicates of a stochastic simulation on a worker
// pool with deterministic per-replicate random streams.
//
// Every replicate draws randomness only from its own stream, keyed by the
// replicate index via rng.NewStream — never from a per-worker stream — so
// the results are byte-identical for every worker count, including 1.
// RunEngine additionally lends each worker one engine of any type, which
// keeps the per-replicate hot path free of allocation.
package mc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lvmajority/internal/progress"
	"lvmajority/internal/rng"
)

// Options configure a replicated run.
type Options struct {
	// Replicates is the number of independent replicates (default 1000).
	Replicates int
	// Workers is the parallel worker count (default GOMAXPROCS, capped at
	// Replicates). The choice affects scheduling only, never results.
	Workers int
	// Seed is the root seed; replicate i draws from rng.NewStream(Seed, i).
	Seed uint64
	// Interrupt, when non-nil, is polled between replicates; a non-nil
	// return aborts the run with that error. It exists so long runs can be
	// cancelled promptly (e.g. by a server-side context); while it returns
	// nil it never affects results — replicates still draw only from their
	// index-keyed streams.
	Interrupt func() error
	// Progress, when non-nil, receives progress.KindTrials snapshots as
	// replicates complete. Like Interrupt, it is observation-only: events
	// carry copies of counters the pool already maintains, emission sits
	// outside replicate execution, and nothing a hook does can reach the
	// index-keyed streams — so attaching one never changes results. The
	// hook is called concurrently from worker goroutines.
	Progress progress.Hook
}

func (o Options) normalized() Options {
	if o.Replicates <= 0 {
		o.Replicates = 1000
	}
	return o
}

// Run executes fn for every replicate index in [0, Replicates) on a worker
// pool and returns the results in replicate order. Each invocation receives
// the replicate's own deterministic stream, so the returned slice is
// identical for every Workers setting. The first error aborts the run.
//
// The Source passed to fn is only valid for that invocation: workers reuse
// one Source across replicates by reseeding it in place, so fn must not
// retain it.
func Run[T any](opts Options, fn func(rep int, src *rng.Source) (T, error)) ([]T, error) {
	return RunEngine(opts, func() (struct{}, error) { return struct{}{}, nil },
		func(rep int, _ struct{}, src *rng.Source) (T, error) { return fn(rep, src) })
}

// RunEngine is Run with one engine per worker: each worker builds its
// engine once through newEngine and passes it to fn with every replicate's
// stream, so construction and its allocations happen once per worker
// rather than once per replicate. fn must restart the engine from the
// stream, so that results still depend only on the replicate index.
func RunEngine[E, T any](opts Options, newEngine func() (E, error), fn func(rep int, e E, src *rng.Source) (T, error)) ([]T, error) {
	opts = opts.normalized()
	out := make([]T, opts.Replicates)
	_, err := runPool(0, opts.Replicates, 1, opts, func() (spanFunc, error) {
		e, err := newEngine()
		if err != nil {
			return nil, err
		}
		return trialSpan(opts.Seed, func(rep int, src *rng.Source) (bool, error) {
			v, err := fn(rep, e, src)
			out[rep] = v
			return false, err
		}), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// spanFunc runs trials [lo, hi) of a run and returns how many succeeded.
type spanFunc func(lo, hi int) (wins int, err error)

// trialSpan adapts a trial-at-a-time source to a span function: each
// trial gets its own index-keyed stream, reseeded in place so the worker
// reuses one Source.
func trialSpan(seed uint64, trial func(rep int, src *rng.Source) (bool, error)) spanFunc {
	var src rng.Source
	return func(lo, hi int) (int, error) {
		wins := 0
		for rep := lo; rep < hi; rep++ {
			src.ReseedStream(seed, uint64(rep))
			won, err := trial(rep, &src)
			if err != nil {
				return 0, err
			}
			if won {
				wins++
			}
		}
		return wins, nil
	}
}

// runPool runs trials [lo, hi) in spans of at most width trials and returns
// the number of successes. A window narrower than width times the worker
// count is split evenly instead, into spans of ⌈(hi−lo)/workers⌉ trials, so
// that every worker gets a span. Spans are handed out through one atomic
// cursor, so within a worker they arrive in increasing order while the
// assignment of spans to workers is scheduling-dependent — which is why a
// span may draw trial rep's randomness only from rng.NewStream(opts.Seed,
// rep). A trial-at-a-time source is a width-1 span. newWorker is called
// once per worker to build its (possibly stateful) span function. Workers
// defaults to GOMAXPROCS and is capped at the number of spans; Replicates
// is only the progress total and is raised to at least hi.
func runPool(lo, hi, width int, opts Options, newWorker func() (spanFunc, error)) (int, error) {
	if hi < lo {
		return 0, fmt.Errorf("mc: inverted trial window [%d, %d)", lo, hi)
	}
	n := hi - lo
	if n == 0 {
		return 0, nil
	}
	if opts.Replicates < hi {
		opts.Replicates = hi
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	width = min(width, (n+workers-1)/workers)
	workers = min(workers, (n+width-1)/width)
	report := trialReporter(lo, n, opts)

	var next atomic.Int64
	next.Store(int64(lo))
	var failed atomic.Bool
	work := func() (wins int, err error) {
		fn, err := newWorkerSafe(newWorker, opts.Seed)
		if err != nil {
			return 0, err
		}
		for !failed.Load() {
			if opts.Interrupt != nil {
				if err := opts.Interrupt(); err != nil {
					return 0, err
				}
			}
			b := int(next.Add(int64(width))) - width
			if b >= hi {
				break
			}
			end := min(b+width, hi)
			won, err := callSpan(fn, opts.Seed, b, end)
			if err != nil {
				return 0, err
			}
			wins += won
			report(end-b, won)
		}
		return wins, nil
	}
	wins := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if wins[w], errs[w] = work(); errs[w] != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	total := 0
	for w, err := range errs {
		if err != nil {
			return 0, err
		}
		total += wins[w]
	}
	return total, nil
}

// trialReporter returns the pool's completion callback: workers call it with
// the trials and wins of the span they just finished, and it publishes a
// progress.KindTrials snapshot roughly every 1/64th of the window (always
// at completion). Both counts live in one atomic word, done<<32 | wins, so
// every snapshot pairs a trial count with exactly the wins of those trials
// and never reports more wins than trials; windows stay far below 2³²
// trials. With a nil hook it collapses to a no-op so the pool pays a single
// nil check.
func trialReporter(lo, n int, opts Options) func(trials, wins int) {
	if opts.Progress == nil {
		return func(int, int) {}
	}
	stride := uint64(max(n/64, 1))
	var counts atomic.Uint64
	return func(trials, wins int) {
		c := counts.Add(uint64(trials)<<32 | uint64(wins))
		d := c >> 32
		if d/stride != (d-uint64(trials))/stride || d == uint64(n) {
			opts.Progress(progress.Event{
				Kind:  progress.KindTrials,
				Done:  int64(lo) + int64(d),
				Total: int64(opts.Replicates),
				Wins:  int64(c & (1<<32 - 1)),
			})
		}
	}
}
