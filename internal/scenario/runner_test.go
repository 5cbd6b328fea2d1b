package scenario

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lvmajority/internal/consensus"
	"lvmajority/internal/crn"
	"lvmajority/internal/experiment"
	"lvmajority/internal/lv"
	"lvmajority/internal/report"
	"lvmajority/internal/sweep"
)

// zeroNow pins manifests to the unstamped form for byte comparisons.
func zeroNow() time.Time { return time.Time{} }

func lvSDModel() *Model {
	return &Model{Kind: ModelLV, LV: &LVModel{
		Beta: 1, Death: 1, Alpha0: 1, Alpha1: 1, Competition: "sd", Label: "lv-sd",
	}}
}

func TestRunnerEstimateMatchesConsensus(t *testing.T) {
	spec := New(TaskEstimate)
	spec.Model = lvSDModel()
	spec.Seed = 7
	spec.Estimate = &EstimateSpec{N: 100, Delta: 20, Trials: 400}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := consensus.EstimateWinProbability(
		consensus.LVProtocol{Params: lv.Neutral(1, 1, 1, 0, lv.SelfDestructive), Label: "lv-sd"},
		100, 20, consensus.EstimateOptions{Trials: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if *res.Estimate != want {
		t.Errorf("runner estimate %v, direct estimate %v", *res.Estimate, want)
	}
	if len(res.Manifests) != 1 || len(res.Manifests[0].Tables) != 1 {
		t.Fatalf("estimate result carries %d manifests", len(res.Manifests))
	}
	if res.Manifests[0].ExperimentID != "RUN-estimate" {
		t.Errorf("manifest id %q", res.Manifests[0].ExperimentID)
	}

	// Worker count must never change the estimate.
	spec.Workers = 3
	res3, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if *res3.Estimate != *res.Estimate {
		t.Errorf("estimate depends on workers: %v vs %v", *res3.Estimate, *res.Estimate)
	}
}

// TestRunnerIgnoresProtocolKernel checks that the deprecated kernel field
// of a protocol model changes nothing: the rule table picks the engine, so
// "", "batch" and "lockstep" give the same estimate on 3-state-am.
func TestRunnerIgnoresProtocolKernel(t *testing.T) {
	r := &Runner{Now: zeroNow}
	var want *Result
	for _, kernel := range []string{"", KernelBatch, KernelLockstep} {
		spec := New(TaskEstimate)
		spec.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "3-state-am", Kernel: kernel}}
		spec.Seed = 5
		spec.Estimate = &EstimateSpec{N: 128, Delta: 12, Trials: 600}
		if err := spec.Validate(); err != nil {
			t.Fatalf("kernel %q: %v", kernel, err)
		}
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if *res.Estimate != *want.Estimate {
			t.Errorf("kernel %q: estimate %v, without a kernel %v", kernel, *res.Estimate, *want.Estimate)
		}
	}
}

func TestRunnerSweepMatchesDirect(t *testing.T) {
	spec := New(TaskSweep)
	spec.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "3-state-am"}}
	spec.Seed = 5
	spec.Sweep = &SweepSpec{Grid: []int{64, 96}, Trials: 300, Target: 0.9}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProtocolByName("3-state-am")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.Run(p, sweep.Options{Grid: []int{64, 96}, Trials: 300, Target: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep.Points) != len(want.Points) {
		t.Fatalf("sweep points %d, want %d", len(res.Sweep.Points), len(want.Points))
	}
	for i := range want.Points {
		if res.Sweep.Points[i].Threshold != want.Points[i].Threshold {
			t.Errorf("n=%d: threshold %d, want %d",
				want.Points[i].N, res.Sweep.Points[i].Threshold, want.Points[i].Threshold)
		}
	}
}

func TestRunnerSimulateLV(t *testing.T) {
	spec := New(TaskSimulate)
	spec.Model = lvSDModel()
	spec.Seed = 1
	spec.Simulate = &SimulateSpec{Runs: 200, A: 60, B: 40}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Simulate.LV
	if b == nil {
		t.Fatal("LV batch missing")
	}
	if b.Runs != 200 || b.Wins <= 0 || b.Wins > 200 {
		t.Errorf("batch wins %d of %d", b.Wins, b.Runs)
	}
	if b.Steps.N() != 200-b.Unresolved {
		t.Errorf("steps accumulator has %d samples, want %d", b.Steps.N(), 200-b.Unresolved)
	}

	// Identical for any worker count.
	spec.Workers = 4
	res4, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res4.Simulate.LV.Wins != b.Wins || res4.Simulate.LV.Steps.Mean() != b.Steps.Mean() {
		t.Error("simulate batch depends on worker count")
	}
}

func TestRunnerSimulateCRNEngines(t *testing.T) {
	text := "X0 -> 2 X0 @ 1\nX0 -> 0 @ 1.1\n"
	for _, engine := range []string{"", crn.EngineDirect, crn.EngineLeap} {
		spec := New(TaskSimulate)
		spec.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: text, Engine: engine}}
		spec.Seed = 3
		spec.Workers = 1
		spec.Simulate = &SimulateSpec{Runs: 30, Init: map[string]int{"X0": 50}, MaxSteps: 50_000}

		r := &Runner{Now: zeroNow}
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		b := res.Simulate.CRN
		if b == nil || b.Runs != 30 {
			t.Fatalf("engine %q: bad batch %+v", engine, b)
		}
		// Subcritical birth-death: most runs should absorb at extinction.
		if b.Absorbed == 0 {
			t.Errorf("engine %q: no run absorbed", engine)
		}

		// Identical for any worker count, though each worker reuses
		// one engine across its replicates.
		spec.Workers = 4
		res4, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("engine %q, 4 workers: %v", engine, err)
		}
		if got, want := res4.Manifests[0].Tables[0].Cells, res.Manifests[0].Tables[0].Cells; !reflect.DeepEqual(got, want) {
			t.Errorf("engine %q: 4-worker batch %v differs from 1-worker batch %v", engine, got, want)
		}
	}
}

func TestRunnerEstimateOnCRNModel(t *testing.T) {
	// The paper's SD chain written as an explicit CRN: species 0 is the
	// majority by convention.
	text := "X0 -> 2 X0 @ 1\nX1 -> 2 X1 @ 1\nX0 -> 0 @ 1\nX1 -> 0 @ 1\nX0 + X1 -> 0 @ 2\n"
	spec := New(TaskEstimate)
	spec.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: text}}
	spec.Seed = 9
	spec.Estimate = &EstimateSpec{N: 60, Delta: 20, Trials: 300}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Estimate.P(); p <= 0.5 || p > 1 {
		t.Errorf("majority win probability %v for a 40-20 start", p)
	}
}

func TestRunnerExact(t *testing.T) {
	spec := New(TaskExact)
	spec.Model = lvSDModel()
	spec.Exact = &ExactSpec{A: 10, B: 5, Steps: true}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Exact.Solution.Rho(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0.5 || v > 1 {
		t.Errorf("rho(10,5) = %v", v)
	}
	if res.Exact.Ceiling != ExactCeiling(10, 5, 0) {
		t.Errorf("ceiling %d, want %d", res.Exact.Ceiling, ExactCeiling(10, 5, 0))
	}
	if len(res.Manifests) != 1 {
		t.Fatal("exact result has no manifest")
	}

	// Table form.
	spec.Exact = &ExactSpec{Table: 4}
	res, err = r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Manifests[0].Tables[0]
	if len(tbl.Columns) != 5 || len(tbl.Rows) != 4 {
		t.Errorf("table shape %dx%d, want 4x5", len(tbl.Rows), len(tbl.Columns))
	}
}

// TestRunnerExperimentManifestMatchesDirect is the acceptance tie: the
// runner's experiment task must produce byte-identical manifests to the
// direct registry path cmd/experiments uses (wall time excepted — it is
// provenance, not a result).
func TestRunnerExperimentManifestMatchesDirect(t *testing.T) {
	spec := New(TaskExperiment)
	spec.Seed = 20240506
	spec.Experiment = &ExperimentSpec{ID: "E-DOM"}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	e, err := experiment.ByID("E-DOM")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(experiment.Config{Seed: 20240506})
	if err != nil {
		t.Fatal(err)
	}
	want := report.New(e, report.RunInfo{Seed: 20240506}, tables)

	got := *res.Manifests[0]
	got.WallTimeNS = 0
	gotJSON, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("runner manifest differs from direct run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

func TestRunnerCachePolicies(t *testing.T) {
	grid := []int{64, 96}
	newSweepSpec := func(cache *CacheSpec) Spec {
		s := New(TaskSweep)
		s.Model = lvSDModel()
		s.Seed = 5
		s.Cache = cache
		s.Sweep = &SweepSpec{Grid: grid, Trials: 200, Target: 0.9}
		return s
	}

	t.Run("file persists", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "probes.json")
		r := &Runner{Now: zeroNow}
		res, err := r.Run(context.Background(), newSweepSpec(&CacheSpec{Policy: CacheFile, Path: path}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Sweep.EstimatorCalls == 0 {
			t.Fatal("cold sweep made no estimator calls")
		}
		res2, err := r.Run(context.Background(), newSweepSpec(&CacheSpec{Policy: CacheFile, Path: path}))
		if err != nil {
			t.Fatal(err)
		}
		if res2.Sweep.EstimatorCalls != 0 {
			t.Errorf("warm file-cache rerun made %d estimator calls", res2.Sweep.EstimatorCalls)
		}
		if res2.Manifests[0].SweepCacheHits == 0 {
			t.Error("manifest records no cache hits on a warm rerun")
		}
	})

	t.Run("shared reused across runs", func(t *testing.T) {
		r := &Runner{Now: zeroNow}
		if _, err := r.Run(context.Background(), newSweepSpec(&CacheSpec{Policy: CacheShared})); err != nil {
			t.Fatal(err)
		}
		res2, err := r.Run(context.Background(), newSweepSpec(&CacheSpec{Policy: CacheShared}))
		if err != nil {
			t.Fatal(err)
		}
		if res2.Sweep.EstimatorCalls != 0 {
			t.Errorf("second shared-cache run made %d estimator calls", res2.Sweep.EstimatorCalls)
		}
	})

	t.Run("memory not reused", func(t *testing.T) {
		r := &Runner{Now: zeroNow}
		res1, err := r.Run(context.Background(), newSweepSpec(&CacheSpec{Policy: CacheMemory}))
		if err != nil {
			t.Fatal(err)
		}
		res2, err := r.Run(context.Background(), newSweepSpec(&CacheSpec{Policy: CacheMemory}))
		if err != nil {
			t.Fatal(err)
		}
		if res2.Sweep.EstimatorCalls != res1.Sweep.EstimatorCalls {
			t.Errorf("memory policy leaked probes between runs: %d vs %d",
				res2.Sweep.EstimatorCalls, res1.Sweep.EstimatorCalls)
		}
	})
}

func TestRunnerCancellation(t *testing.T) {
	spec := New(TaskSweep)
	spec.Model = lvSDModel()
	spec.Seed = 5
	spec.Sweep = &SweepSpec{Grid: []int{256, 512, 1024}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Now: zeroNow}
	if _, err := r.Run(ctx, spec); err == nil {
		t.Error("cancelled sweep returned nil error")
	}

	// Cancellation mid-run: cancel shortly after the run starts.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx2, spec)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if err == nil {
			t.Log("run finished before the cancel landed; nothing to assert")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return within 30s")
	}
}

func TestRunnerReportTask(t *testing.T) {
	dir := t.TempDir()
	spec := New(TaskReport)
	spec.Report = &ReportSpec{Design: filepath.Join(dir, "DESIGN.md")}

	r := &Runner{Now: zeroNow}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ExperimentCount == 0 || res.Report.DesignWritten == "" {
		t.Errorf("report result %+v", res.Report)
	}
}
