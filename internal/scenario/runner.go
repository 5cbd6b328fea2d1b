package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/crn"
	"lvmajority/internal/exact"
	"lvmajority/internal/experiment"
	"lvmajority/internal/lv"
	"lvmajority/internal/mc"
	"lvmajority/internal/progress"
	"lvmajority/internal/report"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
	"lvmajority/internal/sweep"
)

// Runner executes Specs. The zero value is ready to use; a Runner is safe
// for concurrent Run calls, which is how the server executes several
// in-flight runs against one process-wide probe cache.
type Runner struct {
	// Cache is the process-wide probe cache served to specs with the
	// "shared" cache policy. Nil is fine: the first shared-policy run
	// creates it.
	Cache *sweep.Cache
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Now stamps manifests (nil = time.Now). Tests pin it — a Now that
	// returns the zero time leaves manifests unstamped, which is what
	// byte-identity comparisons want.
	Now func() time.Time
	// Progress, when non-nil, receives the observation stream of every
	// run this Runner executes: a phase event per task start and
	// completion, plus the trial, estimate, probe, and point events of the
	// engines underneath, each annotated with the task's scope (the task
	// name, or the experiment ID for experiment tasks). It is the
	// process-wide default; per-run hooks go through RunWithProgress.
	// Observation-only: attaching a hook never changes results.
	Progress progress.Hook
	// Probes, when non-nil, builds the per-gap probe estimator of the
	// estimate, threshold, and sweep tasks in place of the local default —
	// the seam the fabric coordinator uses to shard a probe's trial
	// windows across a worker fleet. The factory must return estimators
	// deterministic in their arguments and byte-equivalent to
	// consensus.DefaultEstimator, which the fabric guarantees by running
	// the same estimator control loop over location-independent window
	// counts. Tasks without probe estimators (simulate, exact, experiment,
	// report) always run locally.
	Probes ProbeFactory

	mu sync.Mutex // guards lazy creation of Cache
}

// ProbeFactory builds the probe estimator for one (model, population,
// target) configuration; see Runner.Probes. The model is the estimator's
// wire-serializable description of p — what a coordinator forwards to its
// workers — and target and earlyStop arrive already resolved.
type ProbeFactory func(model *Model, p consensus.Protocol, n int, target float64, earlyStop bool) consensus.ProbeEstimator

// Result is the typed outcome of one executed Spec. Manifests carry the
// run's tables with full provenance (internal/report) for every computing
// task; the task-specific fields expose the underlying typed values for
// programmatic use and for the CLI front-ends' legacy renderings.
type Result struct {
	// Spec is the executed spec, echoed for self-describing results.
	Spec Spec `json:"spec"`
	// Manifests are the run's provenance-carrying result records: exactly
	// one for every task except report (which produces documents, not
	// tables).
	Manifests []*report.Manifest `json:"manifests,omitempty"`

	// Estimate is set for TaskEstimate.
	Estimate *stats.BernoulliEstimate `json:"estimate,omitempty"`
	// Threshold is set for TaskThreshold.
	Threshold *consensus.ThresholdResult `json:"threshold,omitempty"`
	// Sweep is set for TaskSweep.
	Sweep *sweep.Result `json:"sweep,omitempty"`
	// Simulate is set for TaskSimulate. It holds live accumulators and a
	// parsed network, so it is for in-process consumers only; the
	// manifest tables carry the serializable summary.
	Simulate *SimulateResult `json:"-"`
	// Exact is set for TaskExact (in-process only, like Simulate).
	Exact *ExactResult `json:"-"`
	// Report is set for TaskReport.
	Report *ReportResult `json:"report,omitempty"`
}

// SimulateResult aggregates a batch-simulation run; exactly one of LV and
// CRN is set, matching the model kind.
type SimulateResult struct {
	LV  *LVBatch
	CRN *CRNBatch
}

// LVBatch is the outcome aggregation of a Lotka–Volterra batch, mirroring
// what lvsim has always reported.
type LVBatch struct {
	Params  lv.Params
	Initial lv.State
	Runs    int
	// Wins counts runs the initial majority won; DoubleExtinctions the
	// runs ending with both species dead; Unresolved the runs that
	// exhausted the step budget.
	Wins, DoubleExtinctions, Unresolved int
	// Steps, Individual, Competitive and Bad accumulate the per-run event
	// counts over resolved runs.
	Steps, Individual, Competitive, Bad stats.Running
}

// CRNBatch is the final-state aggregation of a CRN batch, mirroring crnrun.
type CRNBatch struct {
	Net      *crn.Network
	Runs     int
	Absorbed int
	Steps    stats.Running
	// Finals holds one accumulator of final counts per species, in
	// species order.
	Finals []stats.Running
}

// ExactResult carries the exact solver's outcome: the solution grid plus
// the resolved labelling and ceiling.
type ExactResult struct {
	Solution *exact.Solution
	// Label describes the solved model (rate string or network summary).
	Label string
	// Ceiling is the resolved grid ceiling.
	Ceiling int
}

// ReportResult records what a report task produced.
type ReportResult struct {
	// DesignWritten and ExperimentsWritten are the generated files, when
	// requested; ManifestCount and ExperimentCount the inputs behind them.
	DesignWritten      string `json:"design_written,omitempty"`
	ExperimentsWritten string `json:"experiments_written,omitempty"`
	ManifestCount      int    `json:"manifest_count,omitempty"`
	ExperimentCount    int    `json:"experiment_count,omitempty"`
	// Rendered is the re-rendered manifest for the ascii and md render
	// forms (csv writes files instead).
	Rendered []byte `json:"rendered,omitempty"`
}

func (r *Runner) now() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// sharedCache returns the process-wide probe cache, creating it on first
// use.
func (r *Runner) sharedCache() *sweep.Cache {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Cache == nil {
		r.Cache = sweep.NewCache()
	}
	return r.Cache
}

// cacheFor resolves the spec's cache policy. save reports whether the run
// must persist the cache when it finishes (the "file" policy).
func (r *Runner) cacheFor(spec *Spec) (cache *sweep.Cache, save bool, err error) {
	if spec.Cache == nil || spec.Cache.Policy == CacheOff {
		return nil, false, nil
	}
	switch spec.Cache.Policy {
	case CacheMemory:
		return sweep.NewCache(), false, nil
	case CacheShared:
		return r.sharedCache(), false, nil
	case CacheFile:
		c, err := sweep.OpenCache(spec.Cache.Path)
		if err != nil {
			return nil, false, err
		}
		return c, true, nil
	case CacheRemote:
		c, err := sweep.OpenRemoteCache(spec.Cache.URL, nil)
		if err != nil {
			return nil, false, err
		}
		return c, true, nil
	default:
		return nil, false, fmt.Errorf("scenario: unknown cache policy %q", spec.Cache.Policy)
	}
}

// Run validates and executes one spec. Cancellation of ctx aborts
// Monte-Carlo tasks — estimate, threshold, sweep, simulate, and experiment
// — between trials; the exact and report tasks (no Monte Carlo) are
// checked at task boundaries only.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Result, error) {
	return r.RunWithProgress(ctx, spec, nil)
}

// RunWithProgress is Run with a per-run observation hook layered over the
// Runner's process-wide one: the server attaches each run's broadcaster
// here while cmd/experiments-style front-ends set Runner.Progress once.
// Events are annotated with the task's scope before they reach either hook.
// Observation-only: results are byte-identical with any hook attached.
func (r *Runner) RunWithProgress(ctx context.Context, spec Spec, hook progress.Hook) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cache, save, err := r.cacheFor(&spec)
	if err != nil {
		return nil, err
	}
	var hits0, misses0 int64
	if cache != nil {
		hits0, misses0 = cache.Counters()
	}
	start := time.Now()

	// The spec's wall-clock budget, when set, bounds the whole task through
	// the same context every Monte-Carlo engine already polls.
	if spec.Timeout != "" {
		d, derr := time.ParseDuration(spec.Timeout)
		if derr != nil {
			return nil, fmt.Errorf("scenario: invalid timeout %q: %w", spec.Timeout, derr)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	hook = scoped(progress.Tee(r.Progress, hook), scopeOf(&spec))
	hook.Emit(progress.Event{Kind: progress.KindPhase, Phase: progress.PhaseStart})

	res := &Result{Spec: spec}
	err = r.dispatch(ctx, &spec, cache, res, hook)
	if err != nil {
		hook.Emit(progress.Event{
			Kind:   progress.KindPhase,
			Phase:  progress.PhaseFailed,
			Err:    err.Error(),
			Detail: FailureDetail(err),
		})
		return nil, err
	}
	hook.Emit(progress.Event{Kind: progress.KindPhase, Phase: progress.PhaseDone})

	// Stamp provenance on every manifest the task assembled.
	for _, m := range res.Manifests {
		m.WallTimeNS = time.Since(start).Nanoseconds()
		if cache != nil {
			hits, misses := cache.Counters()
			m.SweepCacheHits, m.SweepCacheMisses = hits-hits0, misses-misses0
		}
	}
	if save {
		if err := cache.Save(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// dispatch executes the task behind its panic-isolation boundary: a panic
// anywhere in a task — below the mc pools' own recovery, in a solver, in
// report generation — fails the run with a TaskPanicError instead of
// killing the process (and with it, every other in-flight run a server is
// executing).
func (r *Runner) dispatch(ctx context.Context, spec *Spec, cache *sweep.Cache, res *Result, hook progress.Hook) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &TaskPanicError{Task: spec.Task, Value: v, Stack: string(debug.Stack())}
		}
	}()
	switch spec.Task {
	case TaskEstimate:
		return r.runEstimate(ctx, spec, res, hook)
	case TaskThreshold:
		return r.runThreshold(ctx, spec, res, hook)
	case TaskSweep:
		return r.runSweep(ctx, spec, cache, res, hook)
	case TaskSimulate:
		return r.runSimulate(ctx, spec, res, hook)
	case TaskExact:
		return r.runExact(spec, res)
	case TaskExperiment:
		return r.runExperiment(ctx, spec, cache, res, hook)
	case TaskReport:
		return r.runReport(spec, res)
	default:
		return fmt.Errorf("scenario: unknown task %q", spec.Task)
	}
}

// TaskPanicError reports a panic recovered at the task boundary.
type TaskPanicError struct {
	// Task is the task that panicked.
	Task Task
	// Value is the recovered panic value; Stack the goroutine stack at the
	// recovery point.
	Value any
	Stack string
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("scenario: panic in %s task: %v", e.Task, e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *TaskPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// FailureDetail classifies a run failure into the progress Detail classes:
// panic (a recovered engine or task panic), timeout (the spec's deadline
// expired), interrupted (external cancellation), or "" for ordinary errors.
func FailureDetail(err error) string {
	var taskPanic *TaskPanicError
	var trialPanic *mc.TrialPanicError
	switch {
	case errors.As(err, &taskPanic), errors.As(err, &trialPanic):
		return progress.DetailPanic
	case errors.Is(err, context.DeadlineExceeded):
		return progress.DetailTimeout
	case errors.Is(err, context.Canceled):
		return progress.DetailInterrupted
	}
	return ""
}

// scopeOf names a spec's observation stream: the experiment ID for
// experiment tasks, else the task name.
func scopeOf(spec *Spec) string {
	if spec.Task == TaskExperiment && spec.Experiment != nil {
		return spec.Experiment.ID
	}
	return string(spec.Task)
}

// scoped annotates every event that has no scope yet with the task's scope.
// It returns nil for a nil hook, preserving the zero-cost path.
func scoped(h progress.Hook, scope string) progress.Hook {
	if h == nil {
		return nil
	}
	return func(e progress.Event) {
		if e.Scope == "" {
			e.Scope = scope
		}
		h(e)
	}
}

// manifest assembles the provenance record of a scenario task. Wall time
// and cache counters are filled in by Run after the task returns.
func (r *Runner) manifest(id, title, artifact string, spec *Spec, full bool, tables []*experiment.Table) *report.Manifest {
	return report.New(
		experiment.Experiment{ID: id, Title: title, Artifact: artifact},
		report.RunInfo{Seed: spec.Seed, Workers: spec.Workers, Full: full, Now: r.now()},
		tables,
	)
}

func interruptFrom(ctx context.Context) func() error {
	return func() error { return ctx.Err() }
}

func (r *Runner) runEstimate(ctx context.Context, spec *Spec, res *Result, hook progress.Hook) error {
	p, err := spec.Model.BuildProtocol()
	if err != nil {
		return err
	}
	e := spec.Estimate
	opts := consensus.EstimateOptions{
		Trials:    e.Trials,
		Workers:   spec.Workers,
		Seed:      spec.Seed,
		Interrupt: interruptFrom(ctx),
		Progress:  hook,
	}
	// DefaultEstimator is EstimateWinProbability with the spec's early-stop
	// choice and target, so routing through the estimator seam leaves local
	// results byte-identical.
	estimate := consensus.DefaultEstimator(p, e.N, e.Target, e.EarlyStop)
	if r.Probes != nil {
		estimate = r.Probes(spec.Model, p, e.N, e.Target, e.EarlyStop)
	}
	est, err := estimate(e.Delta, opts)
	if err != nil {
		return err
	}
	res.Estimate = &est

	tbl := &experiment.Table{
		Title:   "Majority-consensus probability estimate",
		Caption: fmt.Sprintf("protocol %s; Wilson interval at 99%%", p.Name()),
		Columns: []string{"n", "delta", "trials", "successes", "rho", "lo", "hi"},
	}
	tbl.AddRow(e.N, e.Delta, est.Trials, est.Successes, est.P(), est.Lo, est.Hi)
	res.Manifests = []*report.Manifest{r.manifest(
		"RUN-estimate", "Monte-Carlo estimate of rho(n, delta)", "scenario API: estimate task",
		spec, false, []*experiment.Table{tbl})}
	return nil
}

func (r *Runner) runThreshold(ctx context.Context, spec *Spec, res *Result, hook progress.Hook) error {
	p, err := spec.Model.BuildProtocol()
	if err != nil {
		return err
	}
	th := spec.Threshold
	var estimator consensus.ProbeEstimator
	if r.Probes != nil {
		// Resolve the target the way FindThreshold will, so the factory
		// sees the value the early-stop comparison actually uses.
		target := th.Target
		if target <= 0 {
			target = 1 - 1/float64(th.N)
		}
		estimator = r.Probes(spec.Model, p, th.N, target, !th.NoEarlyStop)
	}
	out, err := consensus.FindThreshold(p, th.N, consensus.ThresholdOptions{
		Target:    th.Target,
		Trials:    th.Trials,
		Workers:   spec.Workers,
		Seed:      spec.Seed,
		MaxDelta:  th.MaxDelta,
		EarlyStop: !th.NoEarlyStop,
		Hint:      th.Hint,
		Estimator: estimator,
		Interrupt: interruptFrom(ctx),
		Progress:  hook,
	})
	if err != nil {
		return err
	}
	res.Threshold = &out

	tbl := &experiment.Table{
		Title:   "Empirical majority-consensus threshold",
		Caption: fmt.Sprintf("protocol %s", p.Name()),
		Columns: []string{"n", "target", "threshold", "found", "probes"},
	}
	tbl.AddRow(out.N, out.Target, out.Threshold, out.Found, len(out.Evaluations))
	res.Manifests = []*report.Manifest{r.manifest(
		"RUN-threshold", "Threshold search Psi(n) at one population size", "scenario API: threshold task",
		spec, false, []*experiment.Table{tbl})}
	return nil
}

// DefaultSweepTrials is the historical per-population trial rule of the
// threshold CLI, selected by a sweep spec with Trials == 0: twice the
// population, clamped to [1000, 8000].
func DefaultSweepTrials(n int) int {
	tr := 2 * n
	if tr > 8000 {
		tr = 8000
	}
	if tr < 1000 {
		tr = 1000
	}
	return tr
}

func (r *Runner) runSweep(ctx context.Context, spec *Spec, cache *sweep.Cache, res *Result, hook progress.Hook) error {
	p, err := spec.Model.BuildProtocol()
	if err != nil {
		return err
	}
	sw := spec.Sweep
	opts := sweep.Options{
		Grid:        sw.Grid,
		Target:      sw.Target,
		Trials:      sw.Trials,
		Workers:     spec.Workers,
		Seed:        spec.Seed,
		MaxDelta:    sw.MaxDelta,
		Cold:        sw.Cold,
		NoEarlyStop: sw.NoEarlyStop,
		Cache:       cache,
		Interrupt:   interruptFrom(ctx),
		Progress:    hook,
	}
	if sw.Trials == 0 {
		opts.TrialsFor = DefaultSweepTrials
	}
	if r.Probes != nil {
		model := spec.Model
		opts.Estimator = func(p consensus.Protocol, n int, target float64, earlyStop bool) consensus.ProbeEstimator {
			return r.Probes(model, p, n, target, earlyStop)
		}
	}
	if r.Log != nil {
		opts.Log = r.logf
	}
	out, err := sweep.Run(p, opts)
	if err != nil {
		return err
	}
	res.Sweep = &out

	caption := fmt.Sprintf("protocol %s; %d probes (%d fresh, %d cached)",
		out.Protocol, out.Probes, out.EstimatorCalls, out.CacheHits)
	if fit, err := consensus.FitCurve(out.Curve()); err == nil {
		caption += fmt.Sprintf("; scaling fit: %s", fit)
	}
	tbl := &experiment.Table{
		Title:   "Threshold curve Psi(n)",
		Caption: caption,
		Columns: []string{"n", "target", "threshold", "found", "thr/log2(n)^2", "thr/sqrt(n)"},
	}
	for _, pt := range out.Points {
		if !pt.Found {
			tbl.AddRow(pt.N, pt.Target, -1, false, "-", "-")
			continue
		}
		fn := float64(pt.N)
		tbl.AddRow(pt.N, pt.Target, pt.Threshold, true,
			float64(pt.Threshold)/consensus.ShapeLog2(fn),
			float64(pt.Threshold)/consensus.ShapeSqrt(fn))
	}
	res.Manifests = []*report.Manifest{r.manifest(
		"RUN-sweep", "Threshold curve sweep over a population grid", "scenario API: sweep task",
		spec, false, []*experiment.Table{tbl})}
	return nil
}

func (r *Runner) runSimulate(ctx context.Context, spec *Spec, res *Result, hook progress.Hook) error {
	switch spec.Model.Kind {
	case ModelLV:
		return r.runSimulateLV(ctx, spec, res, hook)
	case ModelCRN:
		return r.runSimulateCRN(ctx, spec, res, hook)
	default:
		return fmt.Errorf("scenario: simulate supports lv and crn models, not %q", spec.Model.Kind)
	}
}

func (r *Runner) runSimulateLV(ctx context.Context, spec *Spec, res *Result, hook progress.Hook) error {
	params, err := spec.Model.LV.Params()
	if err != nil {
		return err
	}
	sm := spec.Simulate
	initial := lv.State{X0: sm.A, X1: sm.B}
	if err := initial.Validate(); err != nil {
		return err
	}
	outs, err := mc.Run(mc.Options{
		Replicates: sm.Runs, Workers: spec.Workers, Seed: spec.Seed,
		Interrupt: interruptFrom(ctx), Progress: hook,
	}, func(_ int, src *rng.Source) (lv.Outcome, error) {
		return lv.Run(params, initial, src, lv.RunOptions{MaxSteps: sm.MaxSteps})
	})
	if err != nil {
		return err
	}
	batch := &LVBatch{Params: params, Initial: initial, Runs: sm.Runs}
	for _, out := range outs {
		if !out.Consensus {
			batch.Unresolved++
			continue
		}
		if out.MajorityWon {
			batch.Wins++
		}
		if out.Winner == -1 {
			batch.DoubleExtinctions++
		}
		batch.Steps.Add(float64(out.Steps))
		batch.Individual.Add(float64(out.Individual))
		batch.Competitive.Add(float64(out.Competitive))
		batch.Bad.Add(float64(out.BadNonCompetitive))
	}
	res.Simulate = &SimulateResult{LV: batch}

	tbl := &experiment.Table{
		Title:   "Batch simulation outcomes",
		Caption: fmt.Sprintf("%s, initial (%d, %d)", params, initial.X0, initial.X1),
		Columns: []string{"metric", "value"},
	}
	tbl.AddRow("runs", batch.Runs)
	tbl.AddRow("majority wins", batch.Wins)
	tbl.AddRow("double extinctions", batch.DoubleExtinctions)
	tbl.AddRow("unresolved", batch.Unresolved)
	tbl.AddRow("mean consensus time T(S)", batch.Steps.Mean())
	tbl.AddRow("mean individual events", batch.Individual.Mean())
	tbl.AddRow("mean competitive events", batch.Competitive.Mean())
	tbl.AddRow("mean bad events J(S)", batch.Bad.Mean())
	res.Manifests = []*report.Manifest{r.manifest(
		"RUN-simulate", "Batch Lotka-Volterra simulation", "scenario API: simulate task",
		spec, false, []*experiment.Table{tbl})}
	return nil
}

func (r *Runner) runSimulateCRN(ctx context.Context, spec *Spec, res *Result, hook progress.Hook) error {
	m := spec.Model.CRN
	net, err := crn.Parse(m.Text)
	if err != nil {
		return err
	}
	sm := spec.Simulate
	initial, err := InitialState(net, sm.Init)
	if err != nil {
		return err
	}
	type final struct {
		steps    int
		absorbed bool
		state    []int
	}
	outs, err := mc.RunEngine(mc.Options{
		Replicates: sm.Runs, Workers: spec.Workers, Seed: spec.Seed,
		Interrupt: interruptFrom(ctx), Progress: hook,
	},
		func() (crn.Engine, error) { return crn.NewEngine(net, initial, m.Engine, sm.MaxTime > 0, rng.New(0)) },
		func(_ int, e crn.Engine, src *rng.Source) (final, error) {
			if err := e.Reset(initial, src); err != nil {
				return final{}, err
			}
			out, err := crn.Run(e, nil, sm.MaxSteps, sm.MaxTime)
			if err != nil {
				return final{}, err
			}
			return final{
				steps:    out.Steps,
				absorbed: out.Absorbed,
				state:    append([]int(nil), e.StateView()...),
			}, nil
		})
	if err != nil {
		return err
	}
	batch := &CRNBatch{Net: net, Runs: sm.Runs, Finals: make([]stats.Running, net.NumSpecies())}
	for _, out := range outs {
		if out.absorbed {
			batch.Absorbed++
		}
		batch.Steps.Add(float64(out.steps))
		for s, c := range out.state {
			batch.Finals[s].Add(float64(c))
		}
	}
	res.Simulate = &SimulateResult{CRN: batch}

	tbl := &experiment.Table{
		Title:   "Batch simulation final states",
		Caption: fmt.Sprintf("%d-species network, %d reactions", net.NumSpecies(), net.NumReactions()),
		Columns: []string{"metric", "value"},
	}
	tbl.AddRow("runs", batch.Runs)
	tbl.AddRow("absorbed", batch.Absorbed)
	tbl.AddRow("mean steps", batch.Steps.Mean())
	for s := range batch.Finals {
		tbl.AddRow(fmt.Sprintf("mean final %s", net.SpeciesName(crn.Species(s))), batch.Finals[s].Mean())
	}
	res.Manifests = []*report.Manifest{r.manifest(
		"RUN-simulate", "Batch CRN simulation", "scenario API: simulate task",
		spec, false, []*experiment.Table{tbl})}
	return nil
}

// InitialState resolves a name-keyed initial-count map against a network's
// species, with unlisted species at zero. Both the CRN simulate task and
// the crnrun front-end resolve -init through it.
func InitialState(net *crn.Network, init map[string]int) ([]int, error) {
	state := make([]int, net.NumSpecies())
	for name, count := range init {
		s, err := net.SpeciesByName(name)
		if err != nil {
			return nil, err
		}
		if count < 0 {
			return nil, fmt.Errorf("scenario: negative initial count %d for species %s", count, name)
		}
		state[s] = count
	}
	return state, nil
}

// ExactCeiling is the historical grid-ceiling rule of the rho CLI, selected
// by an exact spec with Max == 0: 4·(a+b)+40, raised to 4·table+40 when a
// full table is requested and needs more.
func ExactCeiling(a, b, table int) int {
	ceiling := 4*(a+b) + 40
	if table > 0 && 4*table+40 > ceiling {
		ceiling = 4*table + 40
	}
	return ceiling
}

func (r *Runner) runExact(spec *Spec, res *Result) error {
	e := spec.Exact
	ceiling := e.Max
	if ceiling <= 0 {
		ceiling = ExactCeiling(e.A, e.B, e.Table)
	}
	opts := exact.Options{Max: ceiling, TieValue: e.Tie}

	var (
		sol   *exact.Solution
		label string
		err   error
	)
	switch spec.Model.Kind {
	case ModelLV:
		params, perr := spec.Model.LV.Params()
		if perr != nil {
			return perr
		}
		label = params.String()
		if e.Steps {
			sol, err = exact.SolveWithSteps(params, opts)
		} else {
			sol, err = exact.Solve(params, opts)
		}
	case ModelCRN:
		net, perr := crn.Parse(spec.Model.CRN.Text)
		if perr != nil {
			return perr
		}
		label = fmt.Sprintf("network (%d reactions)", net.NumReactions())
		if e.Steps {
			sol, err = exact.SolveNetworkWithSteps(net, opts)
		} else {
			sol, err = exact.SolveNetwork(net, opts)
		}
	default:
		return fmt.Errorf("scenario: exact supports lv and crn models, not %q", spec.Model.Kind)
	}
	if err != nil {
		return err
	}
	res.Exact = &ExactResult{Solution: sol, Label: label, Ceiling: ceiling}

	var tables []*experiment.Table
	if e.Table > 0 {
		tbl := &experiment.Table{
			Title:   "Exact rho(a, b) table",
			Caption: fmt.Sprintf("%s, tie value %g, grid ceiling %d", label, e.Tie, ceiling),
		}
		tbl.Columns = append(tbl.Columns, "a\\b")
		for bb := 1; bb <= e.Table; bb++ {
			tbl.Columns = append(tbl.Columns, fmt.Sprintf("%d", bb))
		}
		for aa := 1; aa <= e.Table; aa++ {
			row := make([]any, 0, e.Table+1)
			row = append(row, aa)
			for bb := 1; bb <= e.Table; bb++ {
				v, err := sol.Rho(aa, bb)
				if err != nil {
					return err
				}
				row = append(row, v)
			}
			tbl.AddRow(row...)
		}
		tables = append(tables, tbl)
	} else {
		tbl := &experiment.Table{
			Title:   "Exact rho(a, b)",
			Caption: fmt.Sprintf("%s, tie value %g, grid ceiling %d", label, e.Tie, ceiling),
			Columns: []string{"a", "b", "rho", "a/(a+b)"},
		}
		v, err := sol.Rho(e.A, e.B)
		if err != nil {
			return err
		}
		if e.Steps {
			tbl.Columns = append(tbl.Columns, "E[T] reactions")
			s, err := sol.Steps(e.A, e.B)
			if err != nil {
				return err
			}
			tbl.AddRow(e.A, e.B, v, float64(e.A)/float64(e.A+e.B), s)
		} else {
			tbl.AddRow(e.A, e.B, v, float64(e.A)/float64(e.A+e.B))
		}
		tables = append(tables, tbl)
	}
	res.Manifests = []*report.Manifest{r.manifest(
		"RUN-exact", "Exact first-step-recurrence solution", "scenario API: exact task",
		spec, false, tables)}
	return nil
}

func (r *Runner) runExperiment(ctx context.Context, spec *Spec, cache *sweep.Cache, res *Result, hook progress.Hook) error {
	ex, err := experiment.ByID(spec.Experiment.ID)
	if err != nil {
		return err
	}
	cfg := experiment.Config{
		Seed:      spec.Seed,
		Workers:   spec.Workers,
		Full:      spec.Experiment.Full,
		Cache:     cache,
		Interrupt: interruptFrom(ctx),
		Log:       r.Log,
		Progress:  hook,
	}
	tables, err := ex.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", ex.ID, err)
	}
	m := report.New(ex, report.RunInfo{
		Seed:    spec.Seed,
		Workers: spec.Workers,
		Full:    spec.Experiment.Full,
		Now:     r.now(),
	}, tables)
	res.Manifests = []*report.Manifest{m}
	return nil
}

// WriteArtifacts persists the side outputs an experiment spec requests
// (CSV directory, manifest directory). The CLI front-end calls it after
// Run so the manifests carry their final wall-time and cache provenance;
// the server refuses specs that request artifacts (LocalPaths).
func (res *Result) WriteArtifacts() error {
	if res.Spec.Experiment == nil {
		return nil
	}
	for _, m := range res.Manifests {
		if dir := res.Spec.Experiment.CSVDir; dir != "" {
			if err := m.WriteCSVDir(dir); err != nil {
				return err
			}
		}
		if dir := res.Spec.Experiment.ReportDir; dir != "" {
			if err := m.WriteFile(filepath.Join(dir, report.Filename(m.ExperimentID))); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Runner) runReport(spec *Spec, res *Result) error {
	rp := spec.Report
	out := &ReportResult{}
	if rp.Render != "" {
		m, err := report.Load(rp.Manifest)
		if err != nil {
			return err
		}
		switch rp.Render {
		case "ascii", "md", "markdown":
			var buf bytes.Buffer
			if rp.Render == "ascii" {
				err = m.RenderASCII(&buf)
			} else {
				err = m.RenderMarkdown(&buf)
			}
			if err != nil {
				return err
			}
			out.Rendered = buf.Bytes()
		case "csv":
			if err := m.WriteCSVDir(rp.Out); err != nil {
				return err
			}
		default:
			return fmt.Errorf("scenario: unknown report render format %q", rp.Render)
		}
		res.Report = out
		return nil
	}
	if rp.Design != "" {
		exps := experiment.All()
		if err := report.WriteAtomic(rp.Design, func(f io.Writer) error {
			return report.WriteDesign(f, exps)
		}); err != nil {
			return err
		}
		out.DesignWritten = rp.Design
		out.ExperimentCount = len(exps)
	}
	if rp.Experiments != "" {
		ms, err := report.LoadDir(rp.Manifests)
		if err != nil {
			return err
		}
		if err := report.WriteAtomic(rp.Experiments, func(f io.Writer) error {
			return report.WriteExperiments(f, ms)
		}); err != nil {
			return err
		}
		out.ExperimentsWritten = rp.Experiments
		out.ManifestCount = len(ms)
	}
	res.Report = out
	return nil
}
