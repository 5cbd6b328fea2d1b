// Command lvsim simulates trajectories of the two-species stochastic
// Lotka–Volterra chains from the paper and prints either a per-event trace
// or the aggregate outcome statistics of a batch of runs.
//
// The command is a thin front-end over the declarative run API
// (internal/scenario): the flags are parsed into a simulate Spec whose
// batch statistics scenario.Runner computes on the shared mc worker pool;
// the -trace and -plot renderings of the first run stay in the front-end.
// Print the spec with -dump-spec; replay one with -spec.
//
// Examples:
//
//	lvsim -a 60 -b 40 -competition sd -trace
//	lvsim -a 600 -b 400 -competition nsd -runs 1000
//	lvsim -a 60 -b 40 -alpha0 0.5 -alpha1 1.5 -gamma0 0.2 -gamma1 0.2
//	lvsim -a 600 -b 400 -runs 1000 -dump-spec > run.json; lvsim -spec run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
	"lvmajority/internal/scenario"
	"lvmajority/internal/stats"
	"lvmajority/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lvsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lvsim", flag.ContinueOnError)
	var (
		a           = fs.Int("a", 60, "initial count of species 0 (the majority by convention)")
		b           = fs.Int("b", 40, "initial count of species 1")
		beta        = fs.Float64("beta", 1, "per-capita birth rate")
		delta       = fs.Float64("delta", 1, "per-capita death rate")
		alpha0      = fs.Float64("alpha0", 1, "interspecific competition rate initiated by species 0")
		alpha1      = fs.Float64("alpha1", 1, "interspecific competition rate initiated by species 1")
		gamma0      = fs.Float64("gamma0", 0, "intraspecific competition rate of species 0")
		gamma1      = fs.Float64("gamma1", 0, "intraspecific competition rate of species 1")
		competition = fs.String("competition", "sd", `competition model: "sd" (self-destructive) or "nsd"`)
		runs        = fs.Int("runs", 1, "number of independent runs")
		traceRun    = fs.Bool("trace", false, "print each reaction of the first run")
		plot        = fs.Bool("plot", false, "draw an ASCII chart of the first run's trajectory")
		maxSteps    = fs.Int("max-steps", 0, "step budget per run (0 = default)")
	)
	common := scenario.RegisterRun(fs, 1)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.ShowVersion {
		_, err := fmt.Fprintln(w, scenario.Version())
		return err
	}

	specs, err := common.Specs(fs, func() ([]scenario.Spec, error) {
		if *runs < 1 {
			return nil, fmt.Errorf("need at least one run, got %d", *runs)
		}
		spec := scenario.New(scenario.TaskSimulate)
		spec.Model = &scenario.Model{Kind: scenario.ModelLV, LV: &scenario.LVModel{
			Beta: *beta, Death: *delta,
			Alpha0: *alpha0, Alpha1: *alpha1,
			Gamma0: *gamma0, Gamma1: *gamma1,
			Competition: *competition,
		}}
		spec.Seed = common.Seed
		spec.Workers = common.Workers
		spec.Simulate = &scenario.SimulateSpec{
			Runs: *runs, A: *a, B: *b,
			MaxSteps: *maxSteps,
			Trace:    *traceRun, Plot: *plot,
		}
		return []scenario.Spec{spec}, nil
	})
	if err != nil {
		return err
	}
	if common.DumpSpec {
		return scenario.WriteSpecs(w, specs)
	}
	if len(specs) != 1 || specs[0].Task != scenario.TaskSimulate ||
		specs[0].Model == nil || specs[0].Model.Kind != scenario.ModelLV {
		return fmt.Errorf("lvsim runs a single LV simulate spec")
	}
	spec := specs[0]
	if err := spec.Validate(); err != nil {
		return err
	}

	params, err := spec.Model.LV.Params()
	if err != nil {
		return err
	}
	initial := lv.State{X0: spec.Simulate.A, X1: spec.Simulate.B}
	if err := initial.Validate(); err != nil {
		return err
	}

	// Each first-run rendering draws its own sequential stream rooted at
	// the seed, so -plot and -trace show the same run; the batch below
	// draws from index-keyed per-run streams, so they never interact.
	if spec.Simulate.Plot {
		if err := plotRun(w, params, initial, rng.New(spec.Seed), spec.Simulate.MaxSteps); err != nil {
			return err
		}
		if spec.Simulate.Runs == 1 && !spec.Simulate.Trace {
			return nil
		}
	}
	if spec.Simulate.Trace {
		if err := printTrace(w, params, initial, rng.New(spec.Seed), spec.Simulate.MaxSteps); err != nil {
			return err
		}
		if spec.Simulate.Runs == 1 {
			return nil
		}
	}

	runner := &scenario.Runner{}
	res, err := runner.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	return renderBatch(w, res.Simulate.LV)
}

// plotRun simulates one run while recording the trajectory and draws it.
func plotRun(w io.Writer, params lv.Params, initial lv.State, src *rng.Source, maxSteps int) error {
	chain, err := lv.NewChain(params, initial, src)
	if err != nil {
		return err
	}
	chain.SetTrackTime(true)
	tr := trace.NewTrajectory(2048)
	tr.Add(0, initial.X0, initial.X1)
	budget := maxSteps
	if budget <= 0 {
		budget = lv.DefaultMaxSteps
	}
	for !chain.State().Consensus() && chain.Steps() < budget {
		if _, ok := chain.Step(); !ok {
			break
		}
		s := chain.State()
		tr.Add(chain.Time(), s.X0, s.X1)
	}
	fmt.Fprintf(w, "# %s, one trajectory (%d reactions)\n", params, chain.Steps())
	return tr.RenderASCII(w, 100, 20)
}

// printTrace prints one run event by event.
func printTrace(w io.Writer, params lv.Params, initial lv.State, src *rng.Source, maxSteps int) error {
	chain, err := lv.NewChain(params, initial, src)
	if err != nil {
		return err
	}
	chain.SetTrackTime(true)
	fmt.Fprintf(w, "# %s\n", params)
	fmt.Fprintf(w, "%8s  %-8s  %6s  %6s  %10s\n", "step", "event", "x0", "x1", "time")
	fmt.Fprintf(w, "%8d  %-8s  %6d  %6d  %10.4f\n", 0, "init", initial.X0, initial.X1, 0.0)
	budget := maxSteps
	if budget <= 0 {
		budget = lv.DefaultMaxSteps
	}
	for !chain.State().Consensus() && chain.Steps() < budget {
		kind, ok := chain.Step()
		if !ok {
			fmt.Fprintf(w, "# chain absorbed with zero propensity\n")
			break
		}
		s := chain.State()
		fmt.Fprintf(w, "%8d  %-8s  %6d  %6d  %10.4f\n", chain.Steps(), kind, s.X0, s.X1, chain.Time())
	}
	final := chain.State()
	fmt.Fprintf(w, "# final state (%d, %d), winner %d after %d steps\n",
		final.X0, final.X1, final.Winner(), chain.Steps())
	return nil
}

// renderBatch prints the batch statistics in the command's historical
// format.
func renderBatch(w io.Writer, batch *scenario.LVBatch) error {
	fmt.Fprintf(w, "model:               %s\n", batch.Params)
	fmt.Fprintf(w, "initial state:       (%d, %d), gap %d, total %d\n",
		batch.Initial.X0, batch.Initial.X1, batch.Initial.AbsGap(), batch.Initial.Total())
	fmt.Fprintf(w, "runs:                %d\n", batch.Runs)
	decided := batch.Runs - batch.Unresolved
	if decided > 0 {
		est, err := stats.WilsonInterval(batch.Wins, batch.Runs, stats.Z99)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "majority wins:       %s\n", est)
		fmt.Fprintf(w, "double extinctions:  %d\n", batch.DoubleExtinctions)
		fmt.Fprintf(w, "consensus time T(S): %s\n", &batch.Steps)
		fmt.Fprintf(w, "individual events:   %s\n", &batch.Individual)
		fmt.Fprintf(w, "competitive events:  %s\n", &batch.Competitive)
		fmt.Fprintf(w, "bad events J(S):     %s\n", &batch.Bad)
	}
	if batch.Unresolved > 0 {
		fmt.Fprintf(w, "unresolved runs:     %d (step budget exhausted)\n", batch.Unresolved)
	}
	return nil
}
