// Command threshold estimates the empirical majority-consensus threshold
// Ψ(n) — the smallest initial gap reaching success probability 1 − 1/n —
// for a chosen protocol over a range of population sizes, and fits the
// scaling exponent. This regenerates the rows of Table 1 of the paper for
// a single protocol.
//
// The command is a thin front-end over the declarative run API
// (internal/scenario): the flags are parsed into a sweep Spec executed by
// scenario.Runner on the internal/sweep engine — searches warm-started from
// the previous population size's threshold, gaps probed with the
// early-stopping sequential estimator, and -cache persisting settled probes
// so a re-run replays them without spending trials. Print the spec with
// -dump-spec; replay one with -spec.
//
// Examples:
//
//	threshold -protocol lv-sd -n 256,1024,4096
//	threshold -protocol lv-nsd -n 1024 -trials 8000
//	threshold -protocol 3-state-am -n 512
//	threshold -protocol lv-sd -n 256,512,1024 -cache psi.cache.json
//	threshold -protocol lv-sd -n 256,512 -dump-spec > run.json
//	threshold -spec run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lvmajority/internal/consensus"
	"lvmajority/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "threshold:", err)
		os.Exit(1)
	}
}

func parseNs(spec string) ([]int, error) {
	parts := strings.Split(spec, ",")
	ns := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad population size %q: %w", p, err)
		}
		if v < 4 {
			return nil, fmt.Errorf("population size %d too small", v)
		}
		ns = append(ns, v)
	}
	return ns, nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("threshold", flag.ContinueOnError)
	var (
		protoName   = fs.String("protocol", "lv-sd", "protocol to measure")
		nSpec       = fs.String("n", "256,512,1024,2048", "comma-separated population sizes")
		trials      = fs.Int("trials", 0, "Monte-Carlo trials per probed gap (0 = 2n capped at 8000)")
		target      = fs.Float64("target", 0, "success probability target (0 = 1-1/n)")
		verbose     = fs.Bool("v", false, "print every probed gap")
		cold        = fs.Bool("cold", false, "disable warm-started brackets (every n searched from scratch)")
		noEarlyStop = fs.Bool("no-earlystop", false, "disable the early-stopping sequential estimator")
	)
	common := scenario.RegisterRun(fs, 1)
	cachePath := scenario.RegisterCache(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.ShowVersion {
		_, err := fmt.Fprintln(w, scenario.Version())
		return err
	}

	specs, err := common.Specs(fs, func() ([]scenario.Spec, error) {
		ns, err := parseNs(*nSpec)
		if err != nil {
			return nil, err
		}
		spec := scenario.New(scenario.TaskSweep)
		spec.Model = &scenario.Model{
			Kind:     scenario.ModelProtocol,
			Protocol: &scenario.ProtocolModel{Name: *protoName},
		}
		spec.Seed = common.Seed
		spec.Workers = common.Workers
		spec.Cache = scenario.FileCache(*cachePath)
		spec.Sweep = &scenario.SweepSpec{
			Grid:        ns,
			Trials:      *trials,
			Target:      *target,
			Cold:        *cold,
			NoEarlyStop: *noEarlyStop,
			Verbose:     *verbose,
		}
		return []scenario.Spec{spec}, nil
	})
	if err != nil {
		return err
	}
	if common.DumpSpec {
		return scenario.WriteSpecs(w, specs)
	}
	if len(specs) != 1 || specs[0].Task != scenario.TaskSweep {
		return fmt.Errorf("threshold runs a single sweep spec, got %d spec(s) of task %q", len(specs), specs[0].Task)
	}

	runner := &scenario.Runner{}
	result, err := runner.Run(context.Background(), specs[0])
	if err != nil {
		return err
	}
	return render(w, specs[0], result)
}

// render prints the sweep result in the command's historical format.
func render(w io.Writer, spec scenario.Spec, result *scenario.Result) error {
	res := result.Sweep
	fmt.Fprintf(w, "protocol: %s\n", res.Protocol)
	fmt.Fprintf(w, "%8s  %10s  %10s  %14s  %14s\n", "n", "target", "threshold", "thr/log2(n)^2", "thr/sqrt(n)")
	for _, pt := range res.Points {
		if spec.Sweep.Verbose {
			for _, ev := range pt.Evaluations {
				fmt.Fprintf(w, "  probe n=%d delta=%d rho=%s\n", pt.N, ev.Delta, ev.Estimate)
			}
		}
		if !pt.Found {
			fmt.Fprintf(w, "%8d  %10.6f  %10s  %14s  %14s\n", pt.N, pt.Target, "not found", "-", "-")
			continue
		}
		fn := float64(pt.N)
		fmt.Fprintf(w, "%8d  %10.6f  %10d  %14.4f  %14.4f\n",
			pt.N, pt.Target, pt.Threshold,
			float64(pt.Threshold)/consensus.ShapeLog2(fn),
			float64(pt.Threshold)/consensus.ShapeSqrt(fn))
	}
	fmt.Fprintf(w, "probes: %d (%d fresh, %d cached)\n", res.Probes, res.EstimatorCalls, res.CacheHits)

	if fit, err := consensus.FitCurve(res.Curve()); err == nil {
		fmt.Fprintf(w, "scaling fit: %s\n", fit)
	}
	return nil
}
