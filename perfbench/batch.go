package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/progress"
	"lvmajority/internal/scenario"
	"lvmajority/internal/sweep"
)

// The batch workloads run sweep specs through one scenario.Runner in this
// process. lv-curves computes the paper's SD and NSD threshold curves on the
// T1 quick grid; am-lockstep computes the 3-state approximate-majority
// baseline on the lockstep kernel.

// setupSamples is how many set-up probes a batch run times; setup_s is
// their median.
const setupSamples = 31

// sweepSpec is one sweep spec of a batch workload: a registered protocol on
// a grid with early stopping, a fresh in-memory probe cache, and nproc
// workers.
func sweepSpec(protocol, kernel string, grid []int, seed uint64) scenario.Spec {
	s := scenario.New(scenario.TaskSweep)
	s.Model = protocolModel(protocol, kernel)
	s.Seed = seed
	s.Workers = runtime.NumCPU()
	s.Cache = &scenario.CacheSpec{Policy: scenario.CacheMemory}
	s.Sweep = &scenario.SweepSpec{Grid: grid}
	return s
}

// batchSpecs returns the fixed work of one pass of a batch workload.
func batchSpecs(cfg config, seed uint64) []scenario.Spec {
	switch cfg.workload {
	case "lv-curves":
		grid := []int{256, 512, 1024, 2048, 4096}
		if cfg.tiny {
			grid = []int{64, 128}
		}
		return []scenario.Spec{
			sweepSpec("lv-sd", "", grid, seed),
			sweepSpec("lv-nsd", "", grid, seed),
		}
	default: // am-lockstep
		grid := []int{256, 512, 1024}
		if cfg.tiny {
			grid = []int{64, 128}
		}
		return []scenario.Spec{sweepSpec("3-state-am", scenario.KernelLockstep, grid, seed)}
	}
}

// passSeed derives the spec seed of pass k from the benchmark seed.
func passSeed(cfg config, k int) uint64 {
	return mix64(cfg.seed*1_000_003+uint64(k)) >> 16
}

// nominalPass is a pass's wall time on the 2-core machine the benchmark was
// sized on; with --seconds it fixes a run's pass count, so a run's work
// does not depend on how fast the machine happens to be.
var nominalPass = map[string]time.Duration{
	"lv-curves":   6 * time.Second,
	"am-lockstep": 1400 * time.Millisecond,
	"serve-mix":   540 * time.Millisecond,
}

// passCount returns how many nominal passes of the workload fill d, and at
// least least. A tiny run makes least.
func passCount(cfg config, d time.Duration, least int) int {
	if cfg.tiny {
		return least
	}
	return max(least, int(math.Round(float64(d)/float64(nominalPass[cfg.workload]))))
}

// batchSeeds returns the spec seeds of a run's passes. Pass 0 takes the
// benchmark seed. The passes after it take a pool of spec seeds that every
// run shares: a threshold search's path, and with it a pass's work, varies
// by up to 2× between seeds, so most of every run times the same fixed work.
// The last pass repeats pass 1 for the determinism check.
func batchSeeds(cfg config) []uint64 {
	passes := passCount(cfg, cfg.seconds, 3)
	seeds := []uint64{passSeed(cfg, 0)}
	for k := 1; k < passes-1; k++ {
		seeds = append(seeds, mix64(0x5eed_9001+uint64(k))>>16)
	}
	return append(seeds, seeds[1])
}

// batchPass is the measured outcome of one pass.
type batchPass struct {
	seed   uint64
	wall   time.Duration
	cpu    time.Duration
	trials int
	// results are the sweep results in spec order.
	results []*scenario.Result
}

func runBatchPass(ctx context.Context, cfg config, runner *scenario.Runner, seed uint64, root *tracer) (*batchPass, error) {
	specs := batchSpecs(cfg, seed)
	p := &batchPass{seed: seed}
	cpu0, _ := selfUsage()
	start := time.Now()
	var rootID int
	if root != nil {
		rootID = root.begin(cfg.workload, 0)
	}
	for _, spec := range specs {
		var runID int
		if root != nil {
			runID = root.beginRun(rootID, spec.Model.Protocol.Name)
		}
		res, err := runner.Run(ctx, spec)
		if root != nil {
			root.endRun(runID)
		}
		if err != nil {
			return nil, fmt.Errorf("%s sweep: %w", spec.Model.Protocol.Name, err)
		}
		p.results = append(p.results, res)
		for _, pt := range res.Sweep.Points {
			for _, e := range pt.Evaluations {
				p.trials += e.Estimate.Trials
			}
		}
	}
	p.wall = time.Since(start)
	if root != nil {
		root.end(rootID)
	}
	cpu1, _ := selfUsage()
	p.cpu = cpu1 - cpu0
	return p, nil
}

// batchChecker applies the output checks to every pass.
type batchChecker struct {
	cfg   config
	out   *outcome
	first map[uint64]map[string][]int // seed -> protocol -> thresholds
	pass  int
}

func (c *batchChecker) checkPass(p *batchPass) {
	if c.cfg.perturb != "" && c.pass == 1 {
		perturbSweep(c.cfg.perturb, p.results[0].Sweep)
	}
	c.pass++
	curves := map[string][]int{}
	byN := map[string]map[int]int{}
	for _, res := range p.results {
		name := res.Spec.Model.Protocol.Name
		byN[name] = map[int]int{}
		for _, pt := range res.Sweep.Points {
			c.out.check(pointOK(pt), "%s seed %d n=%d: threshold %d is not bracketed by its evaluations (found=%v)",
				name, p.seed, pt.N, pt.Threshold, pt.Found)
			curves[name] = append(curves[name], pt.Threshold)
			byN[name][pt.N] = pt.Threshold
		}
	}
	if sd, nsd := byN["lv-sd"], byN["lv-nsd"]; sd != nil && nsd != nil {
		for n, t := range sd {
			c.out.check(t < nsd[n], "seed %d n=%d: SD threshold %d is not below NSD threshold %d", p.seed, n, t, nsd[n])
		}
	}
	if prev, seen := c.first[p.seed]; seen {
		for name, curve := range curves {
			c.out.check(fmt.Sprint(prev[name]) == fmt.Sprint(curve),
				"%s seed %d: repeat pass returned thresholds %v, first pass %v", name, p.seed, curve, prev[name])
		}
	} else {
		c.first[p.seed] = curves
	}
}

// pointOK reports whether a sweep point was found and its own evaluations
// show Ψ(n) reaching the target and Ψ(n)−2 missing it (unless Ψ(n) is the
// smallest feasible gap).
func pointOK(pt sweep.Point) bool {
	if !pt.Found {
		return false
	}
	at := func(delta int) (float64, bool) {
		for _, e := range pt.Evaluations {
			if e.Delta == delta {
				return e.Estimate.P(), true
			}
		}
		return 0, false
	}
	p, ok := at(pt.Threshold)
	if !ok || p < pt.Target {
		return false
	}
	minFeasible := consensus.MatchParity(pt.N, 0)
	if minFeasible == 0 {
		minFeasible = 2
	}
	if pt.Threshold <= minFeasible {
		return true
	}
	below, ok := at(pt.Threshold - 2)
	return ok && below < pt.Target
}

// perturbSweep corrupts one point of a sweep result for the self-test.
func perturbSweep(kind string, res *sweep.Result) {
	pt := &res.Points[len(res.Points)-1]
	switch kind {
	case "threshold":
		pt.Threshold += 2
	case "estimate":
		for i := range pt.Evaluations {
			if pt.Evaluations[i].Delta == pt.Threshold {
				pt.Evaluations[i].Estimate.Successes = 0
			}
		}
	}
}

func runBatch(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	checker := &batchChecker{cfg: cfg, out: out, first: map[uint64]map[string][]int{}}
	runner := &scenario.Runner{Now: func() time.Time { return time.Time{} }}

	if cfg.trace {
		return out, traceBatch(ctx, cfg, runner, checker)
	}

	var setup []float64
	var passes []*batchPass
	start := time.Now()
	seeds := batchSeeds(cfg)
	for k, seed := range seeds {
		// Set-up probes run between passes, spread over the whole run, so
		// their median reflects the machine over the run, not one moment.
		samples, err := setupProbes(ctx, cfg, (setupSamples*(k+1))/len(seeds)-(setupSamples*k)/len(seeds))
		if err != nil {
			return nil, err
		}
		setup = append(setup, samples...)
		p, err := runBatchPass(ctx, cfg, runner, seed, nil)
		if err != nil {
			return nil, err
		}
		checker.checkPass(p)
		passes = append(passes, p)
	}
	elapsed := time.Since(start)
	_, rss := selfUsage()

	// A batch caller runs the whole workload and waits for it, so a run is
	// one pass. Per-pass means are totals over the passes divided by their
	// number.
	var walls, runs []float64
	var wall, cpu time.Duration
	trials := 0
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		runs = append(runs, ms(p.wall))
		wall += p.wall
		cpu += p.cpu
		trials += p.trials
	}
	n := float64(len(passes))
	const tail = 90.0 // too few passes for a percentile with ten beyond it
	out.metrics["setup_s"] = quantile(setup, 0.5)
	out.metrics["wall_s"] = wall.Seconds() / n
	out.metrics["trials_per_s"] = float64(trials) / wall.Seconds()
	out.metrics["cpu_s"] = cpu.Seconds() / n
	out.metrics["max_rss_mb"] = float64(rss) / 1e6
	out.metrics["run_p50_ms"] = quantile(runs, 0.5)
	out.metrics["run_tail_ms"] = quantile(runs, tail/100)
	out.metrics["runs_per_s"] = n / wall.Seconds()
	out.report["passes"] = len(passes)
	out.report["measured_s"] = elapsed.Seconds()
	out.report["setup_samples_s"] = setup
	out.report["pass_wall_s"] = walls
	out.report["run_tail_percentile"] = tail
	out.report["run_samples"] = len(runs)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes in %.1fs; run tail = p%g of %d runs\n",
		cfg.workload, len(passes), elapsed.Seconds(), tail, len(runs))
	return out, nil
}

// setupProbes times set-up: it launches this binary as a set-up probe child
// n times and measures from process start to the moment the child reports
// its first trial.
func setupProbes(ctx context.Context, cfg config, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []float64
	for i := 0; i < n; i++ {
		args := []string{"--setup-probe", "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed)}
		if cfg.tiny {
			args = append(args, "--tiny")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || line != "first-trial\n" {
			return nil, fmt.Errorf("set-up probe: no first trial (%v, %v)", rerr, werr)
		}
		if werr != nil {
			return nil, fmt.Errorf("set-up probe: %w", werr)
		}
		samples = append(samples, d.Seconds())
	}
	return samples, nil
}

// setupProbeChild is the set-up probe: it prepares the workload's first
// spec exactly as a pass does, runs it, and exits as soon as the first
// probe starts its trials.
func setupProbeChild(cfg config) int {
	spec := batchSpecs(cfg, passSeed(cfg, 0))[0]
	runner := &scenario.Runner{Progress: func(e progress.Event) {
		if e.Kind == progress.KindProbeStart {
			fmt.Println("first-trial")
			os.Exit(0)
		}
	}}
	if _, err := runner.Run(context.Background(), spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up probe:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "perfbench: set-up probe: run finished without a probe")
	return 1
}
