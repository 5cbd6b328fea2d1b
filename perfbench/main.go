// Command perfbench is the reproduction's benchmark. It drives the system
// only through its public surfaces — scenario.Runner for batch work and a
// child cmd/serve process for HTTP work — measures one workload for a fixed
// time, checks every output, and prints one JSON result line.
//
//	perfbench --workload lv-curves --seed 1 --seconds 30 --trace 0 \
//	    --serve-bin .bench_build/bin/serve --out .bench_build/reports
//
// With --trace 0 the result carries the end-to-end metrics, measured on
// untraced passes. With --trace 1 it carries the per-layer metrics: a traced
// pass of the same workload and seed, untraced reference passes that price
// the tracer, and serial calls into each layer at the states the workload
// probes. perfbench/run.py builds both binaries and supplies the two path
// flags; README.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics of a --trace 0 run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"trials_per_s", "1/s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MB"},
	{"run_p50_ms", "ms"},
	{"run_tail_ms", "ms"},
	{"runs_per_s", "1/s"},
}

// perLayer are the metrics of a --trace 1 run. A metric whose layer the
// workload does not pass through is reported as 0 and listed under
// "not_applicable" in the run's report.
var perLayer = []metricDef{
	{"lv.ns_per_event", "ns"},
	{"lv.events_per_trial", "count"},
	{"protocols.lockstep_us_per_trial", "us"},
	{"protocols.batch_us_per_trial", "us"},
	{"consensus.adapter_ns_per_trial", "ns"},
	{"consensus.trials_per_probe", "count"},
	{"consensus.early_stop_frac", "1"},
	{"consensus.probes_per_point", "count"},
	{"mc.pool_ns_per_trial", "ns"},
	{"mc.block_pool_ns_per_trial", "ns"},
	{"mc.parallel_eff", "1"},
	{"mc.parallel_eff_batch", "1"},
	{"sweep.probe_ms", "ms"},
	{"sweep.cache_hit_ratio", "1"},
	{"sweep.cache_get_ns", "ns"},
	{"sweep.cache_put_ns", "ns"},
	{"scenario.self_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.result_bytes", "count"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.coverage", "1"},
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	serveBin string
	out      string
	// tiny shrinks every workload to a few seconds for the harness
	// self-test; perturb corrupts one checked output ("threshold" or
	// "estimate") so the self-test can see the checks count it.
	tiny    bool
	perturb string
	// setupProbe makes this process a set-up probe child: build the
	// workload, start it, and report the first trial on stdout.
	setupProbe bool
}

// outcome is what a run reports: checked operations and metric values.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// report collects details that are not metrics (percentiles used,
	// sample counts, per-model splits); it is written next to the spans.
	report map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

// check records one checked operation and, when it failed, why.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		msg := fmt.Sprintf(format, args...)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		fails, _ := o.report["failures"].([]string)
		o.report["failures"] = append(fails, msg)
	}
}

func main() {
	var cfg config
	var seed uint64
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lv-curves, am-lockstep or serve-mix")
	flag.Uint64Var(&seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "path of the cmd/serve binary")
	flag.StringVar(&cfg.out, "out", "", "directory for the run report and spans (empty: none)")
	flag.BoolVar(&cfg.tiny, "tiny", false, "shrink the workload (harness self-test)")
	flag.StringVar(&cfg.perturb, "perturb", "", "corrupt one checked output: threshold or estimate (harness self-test)")
	flag.BoolVar(&cfg.setupProbe, "setup-probe", false, "internal: act as a set-up probe child")
	flag.Parse()
	cfg.seed = seed
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	if cfg.setupProbe {
		os.Exit(setupProbeChild(cfg))
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("non-positive --seconds")
	}
	if cfg.perturb != "" && cfg.perturb != "threshold" && cfg.perturb != "estimate" {
		return fmt.Errorf("unknown --perturb %q", cfg.perturb)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "lv-curves", "am-lockstep":
		out, err = runBatch(ctx, cfg)
	case "serve-mix":
		if cfg.serveBin == "" {
			return fmt.Errorf("serve-mix needs --serve-bin")
		}
		out, err = runServeMix(ctx, cfg)
	default:
		return fmt.Errorf("unknown workload %q (want lv-curves, am-lockstep or serve-mix)", cfg.workload)
	}
	if err != nil {
		return err
	}
	return emit(cfg, out)
}

// emit writes the run report and prints the result line.
func emit(cfg config, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			v = 0
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		out.report["not_applicable"] = missing
	}
	frac := float64(out.failed) / float64(max(out.attempted, 1))
	out.report["failed_frac"] = frac
	out.report["metrics"] = metrics
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v: failed_frac=%d/%d", cfg.workload, cfg.seed, cfg.trace, out.failed, out.attempted)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, " not_applicable=%v", missing)
	}
	fmt.Fprintln(os.Stderr)
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
		data, err := json.MarshalIndent(out.report, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
		if err := os.WriteFile(filepath.Join(cfg.out, name), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if out.attempted < 1 {
		return fmt.Errorf("no operation was checked")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
