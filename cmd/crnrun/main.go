// Command crnrun simulates an arbitrary chemical reaction network described
// in the text format of internal/crn (see -help for the grammar). It runs
// stochastic simulation from a given initial state and prints either a
// per-reaction trace or batch statistics of the final state.
//
// The command is a thin front-end over the declarative run API
// (internal/scenario): the network text is inlined into a simulate Spec —
// so the spec is self-contained — whose batch statistics scenario.Runner
// computes with the selected crn engine (-engine direct or leap).
// The -trace rendering stays in the front-end: it replays the batch's first
// run on the same engine, stream and clock, printing every event. Print
// the spec with -dump-spec; replay one with -spec.
//
// Examples:
//
//	crnrun -network lv-sd.crn -init "X0=60,X1=40" -runs 1000
//	crnrun -network lv-sd.crn -init "X0=60,X1=40" -trace
//	crnrun -network big.crn -init "X0=500" -runs 100 -engine leap
//	echo 'X -> 2 X @ 1
//	X -> 0 @ 1.1' | crnrun -init "X=100"
//
// The network file format, one reaction per line, with optional comments:
//
//	species: X0 X1          # optional explicit declaration
//	X0 -> 2 X0 @ 1          # birth at rate 1
//	X0 + X1 -> 0 @ 0.5      # both die on contact
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lvmajority/internal/crn"
	"lvmajority/internal/rng"
	"lvmajority/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crnrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("crnrun", flag.ContinueOnError)
	var (
		networkPath = fs.String("network", "", "path to the network file (default: read from stdin)")
		initText    = fs.String("init", "", `initial counts, e.g. "X0=60,X1=40" (unlisted species start at 0)`)
		runs        = fs.Int("runs", 1, "number of independent runs")
		engine      = fs.String("engine", "direct", `simulation engine: "direct" (exact SSA) or "leap" (tau-leaping)`)
		maxSteps    = fs.Int("max-steps", 10_000_000, "reaction budget per run")
		maxTime     = fs.Float64("max-time", 0, "simulated-time budget per run (0 = unlimited)")
		traceRun    = fs.Bool("trace", false, "print each event of the first run")
		echo        = fs.Bool("echo", false, "print the parsed network before simulating")
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
		text, err := readNetworkText(*networkPath, stdin)
		if err != nil {
			return nil, err
		}
		net, err := crn.Parse(text)
		if err != nil {
			return nil, err
		}
		init, err := parseInit(net, *initText)
		if err != nil {
			return nil, err
		}
		engineName := *engine
		if engineName == "direct" {
			engineName = "" // the spec's default; keeps dumps minimal
		}
		spec := scenario.New(scenario.TaskSimulate)
		spec.Model = &scenario.Model{Kind: scenario.ModelCRN, CRN: &scenario.CRNModel{
			Text:   text,
			Engine: engineName,
		}}
		spec.Seed = common.Seed
		spec.Workers = common.Workers
		spec.Simulate = &scenario.SimulateSpec{
			Runs: *runs, Init: init,
			MaxSteps: *maxSteps, MaxTime: *maxTime,
			Trace: *traceRun, Echo: *echo,
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
		specs[0].Model == nil || specs[0].Model.Kind != scenario.ModelCRN {
		return fmt.Errorf("crnrun runs a single CRN simulate spec")
	}
	spec := specs[0]
	if err := spec.Validate(); err != nil {
		return err
	}

	net, err := crn.Parse(spec.Model.CRN.Text)
	if err != nil {
		return err
	}
	if spec.Simulate.Echo {
		fmt.Fprint(w, crn.Format(net))
		fmt.Fprintln(w)
	}
	if spec.Simulate.Trace {
		initial, err := scenario.InitialState(net, spec.Simulate.Init)
		if err != nil {
			return err
		}
		if err := printTrace(w, net, initial, spec); err != nil {
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
	return renderBatch(w, res.Simulate.CRN)
}

// readNetworkText loads the network description from a file or stdin.
func readNetworkText(path string, stdin io.Reader) (string, error) {
	if path == "" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return "", fmt.Errorf("read stdin: %w", err)
		}
		if len(data) == 0 {
			return "", fmt.Errorf("no network: pass -network FILE or pipe a description to stdin")
		}
		return string(data), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// parseInit parses "X0=60,X1=40" into the name-keyed count map a spec
// carries, validating every name against the network.
func parseInit(net *crn.Network, text string) (map[string]int, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	init := make(map[string]int)
	for _, item := range strings.Split(text, ",") {
		name, countText, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return nil, fmt.Errorf(`bad -init item %q (want "NAME=COUNT")`, item)
		}
		name = strings.TrimSpace(name)
		if _, err := net.SpeciesByName(name); err != nil {
			return nil, err
		}
		count, err := strconv.Atoi(strings.TrimSpace(countText))
		if err != nil || count < 0 {
			return nil, fmt.Errorf("bad count %q for species %s", countText, name)
		}
		init[name] = count
	}
	return init, nil
}

// printTrace replays the batch's first run — replicate 0's stream on the
// spec's engine and clock, under the batch's step and time budgets — and
// prints every event: a reaction, or a tau-leap. Its last step count and
// state are those of a one-run batch. Time is printed only when the run
// tracks it.
func printTrace(w io.Writer, net *crn.Network, initial []int, spec scenario.Spec) error {
	sm, engine := spec.Simulate, spec.Model.CRN.Engine
	e, err := crn.NewEngine(net, initial, engine, sm.MaxTime > 0, rng.NewStream(spec.Seed, 0))
	if err != nil {
		return err
	}
	timed := sm.MaxTime > 0 || engine == crn.EngineLeap
	row := func(name string) {
		if timed {
			fmt.Fprintf(w, "%8d  %-24s  %12.4f  %s\n", e.Steps(), name, e.Time(), formatState(net, e.StateView()))
		} else {
			fmt.Fprintf(w, "%8d  %-24s  %s\n", e.Steps(), name, formatState(net, e.StateView()))
		}
	}
	if timed {
		fmt.Fprintf(w, "%8s  %-24s  %12s  %s\n", "step", "event", "time", "state")
	} else {
		fmt.Fprintf(w, "%8s  %-24s  %s\n", "step", "event", "state")
	}
	row("init")
	for sm.MaxSteps <= 0 || e.Steps() < sm.MaxSteps {
		if sm.MaxTime > 0 && e.Time() >= sm.MaxTime {
			fmt.Fprintln(w, "# time budget reached")
			return nil
		}
		r, err := e.Step()
		if errors.Is(err, crn.ErrExhausted) {
			fmt.Fprintln(w, "# chain absorbed (zero total propensity)")
			return nil
		}
		if err != nil {
			return err
		}
		if r < 0 {
			row("leap")
		} else {
			row(net.Reaction(r).Name)
		}
	}
	fmt.Fprintln(w, "# step budget reached")
	return nil
}

// renderBatch prints the final-state statistics in the command's historical
// format.
func renderBatch(w io.Writer, batch *scenario.CRNBatch) error {
	fmt.Fprintf(w, "runs:        %d\n", batch.Runs)
	fmt.Fprintf(w, "absorbed:    %d\n", batch.Absorbed)
	fmt.Fprintf(w, "steps:       %s\n", &batch.Steps)
	for s := range batch.Finals {
		fmt.Fprintf(w, "final %-10s %s\n", batch.Net.SpeciesName(crn.Species(s))+":", &batch.Finals[s])
	}
	return nil
}

// formatState renders a state vector as "X0=12 X1=3".
func formatState(net *crn.Network, state []int) string {
	parts := make([]string, len(state))
	for s, c := range state {
		parts[s] = fmt.Sprintf("%s=%d", net.SpeciesName(crn.Species(s)), c)
	}
	return strings.Join(parts, " ")
}
