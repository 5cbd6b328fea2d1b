// Command experiments regenerates the paper's evaluation artifacts: Table 1
// of the paper (six competition regimes) plus the per-theorem validation
// experiments indexed in DESIGN.md §3 (generated from the registry by
// cmd/report). Run with no arguments to execute everything at the quick
// effort level, or name experiment IDs.
//
// The command is a thin front-end over the declarative run API
// (internal/scenario): every selected experiment becomes one experiment
// Spec executed by scenario.Runner. Print the specs with -dump-spec; replay
// them with -spec — the same specs run over HTTP via cmd/serve.
//
// With -report DIR, every run also writes a JSON run manifest
// (internal/report) recording the result tables with typed cells plus full
// provenance: seed, grid level, workers, wall time, sweep-cache hit/miss
// counts, and toolchain versions. Manifests are the source the recorded
// EXPERIMENTS.md is generated from, and re-rendering one reproduces this
// command's output byte-for-byte (see cmd/report -render).
//
// Examples:
//
//	experiments                       # run all, quick grids
//	experiments -full T1-SD T1-NSD    # heavier grids, two experiments
//	experiments -list
//	experiments -csv out/ E-SEP       # also write CSV files
//	experiments -cache probes.json T1-SD   # replay settled threshold probes
//	experiments -report results/manifests  # also write run manifests
//	experiments -dump-spec T1-SD > run.json; experiments -spec run.json
//	experiments -progress T1-NSD      # stream live trial/probe progress to stderr
//	experiments -cpuprofile cpu.pprof T1-NSD   # profile a heavy run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"lvmajority/internal/experiment"
	"lvmajority/internal/progress"
	"lvmajority/internal/report"
	"lvmajority/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		full      = fs.Bool("full", false, "use the heavier (recorded) parameter grids")
		csvDir    = fs.String("csv", "", "directory to also write per-table CSV files into")
		reportDir = fs.String("report", "", "directory to write one JSON run manifest per experiment into")
		quiet     = fs.Bool("q", false, "suppress progress logging")
		progFlag  = fs.Bool("progress", false, "stream live progress (trials, estimates, sweep probes) to stderr")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the selected runs to this file")
	)
	common := scenario.RegisterRun(fs, 20240506)
	cachePath := scenario.RegisterCache(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.ShowVersion {
		_, err := fmt.Fprintln(w, scenario.Version())
		return err
	}
	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(w, "%-10s %s [%s]\n", e.ID, e.Title, e.Artifact)
		}
		return nil
	}

	specs, err := common.Specs(fs, func() ([]scenario.Spec, error) {
		var ids []string
		if fs.NArg() == 0 {
			for _, e := range experiment.All() {
				ids = append(ids, e.ID)
			}
		} else {
			for _, id := range fs.Args() {
				if _, err := experiment.ByID(id); err != nil {
					return nil, err
				}
				ids = append(ids, id)
			}
		}
		// Cache policy: an explicit -cache file wins; otherwise -report
		// selects the runner's shared in-memory cache so the manifests'
		// hit/miss accounting is meaningful (and probes shared between
		// selected experiments are replayed) at no behavioural cost — the
		// cache never changes results.
		var cache *scenario.CacheSpec
		switch {
		case *cachePath != "":
			cache = scenario.FileCache(*cachePath)
		case *reportDir != "":
			cache = &scenario.CacheSpec{Policy: scenario.CacheShared}
		}
		specs := make([]scenario.Spec, 0, len(ids))
		for _, id := range ids {
			spec := scenario.New(scenario.TaskExperiment)
			spec.Seed = common.Seed
			spec.Workers = common.Workers
			spec.Cache = cache
			spec.Experiment = &scenario.ExperimentSpec{
				ID:        id,
				Full:      *full,
				CSVDir:    *csvDir,
				ReportDir: *reportDir,
			}
			specs = append(specs, spec)
		}
		return specs, nil
	}, "q", "progress", "cpuprofile")
	if err != nil {
		return err
	}
	if common.DumpSpec {
		return scenario.WriteSpecs(w, specs)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	runner := &scenario.Runner{}
	if !*quiet {
		runner.Log = os.Stderr
	}
	if *progFlag {
		// Observation-only by contract: the hook changes zero result bytes
		// (held to that by the scenario golden tests), so -progress is safe
		// on reproduction runs. Throttled keeps trial lines readable.
		runner.Progress = progress.Throttled(progress.Renderer(os.Stderr), 250*time.Millisecond)
	}
	for _, spec := range specs {
		if spec.Task != scenario.TaskExperiment {
			return fmt.Errorf("experiments runs experiment specs, got task %q", spec.Task)
		}
		e, err := experiment.ByID(spec.Experiment.ID)
		if err != nil {
			return err
		}
		// Header before the run (progress cue for long experiments), body
		// after; together they are exactly RenderASCII's output, which is
		// what keeps manifest replay byte-identical.
		if err := report.ASCIIHeader(w, e.ID, e.Title, e.Artifact); err != nil {
			return err
		}
		res, err := runner.Run(context.Background(), spec)
		if err != nil {
			return err
		}
		for _, m := range res.Manifests {
			if err := m.RenderASCIIBody(w); err != nil {
				return err
			}
		}
		if err := res.WriteArtifacts(); err != nil {
			return err
		}
	}
	return nil
}
