package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
)

// sampleSpecs returns one representative valid spec per task, exercising
// every model kind.
func sampleSpecs() map[string]Spec {
	lvModel := &Model{Kind: ModelLV, LV: &LVModel{
		Beta: 1, Death: 1, Alpha0: 1, Alpha1: 1, Competition: "sd", Label: "lv-sd",
	}}
	protoModel := &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "3-state-am", Kernel: KernelLockstep}}
	crnModel := &Model{Kind: ModelCRN, CRN: &CRNModel{Text: "X0 -> 2 X0 @ 1\nX0 + X1 -> 0 @ 1\nX1 -> 2 X1 @ 1\nX0 -> 0 @ 1\nX1 -> 0 @ 1\n"}}

	estimate := New(TaskEstimate)
	estimate.Model = lvModel
	estimate.Seed = 7
	estimate.Estimate = &EstimateSpec{N: 100, Delta: 20, Trials: 500}

	threshold := New(TaskThreshold)
	threshold.Model = protoModel
	threshold.Seed = 11
	threshold.Threshold = &ThresholdSpec{N: 128, Trials: 400}

	sweepSpec := New(TaskSweep)
	sweepSpec.Model = crnModel
	sweepSpec.Seed = 1
	sweepSpec.Workers = 2
	sweepSpec.Cache = &CacheSpec{Policy: CacheMemory}
	sweepSpec.Sweep = &SweepSpec{Grid: []int{64, 128}, Trials: 300, Target: 0.9}

	simulate := New(TaskSimulate)
	simulate.Model = lvModel
	simulate.Seed = 1
	simulate.Simulate = &SimulateSpec{Runs: 50, A: 60, B: 40}

	exactSpec := New(TaskExact)
	exactSpec.Model = lvModel
	exactSpec.Exact = &ExactSpec{A: 10, B: 5, Steps: true}

	expSpec := New(TaskExperiment)
	expSpec.Seed = 20240506
	expSpec.Experiment = &ExperimentSpec{ID: "E-DOM"}

	reportSpec := New(TaskReport)
	reportSpec.Report = &ReportSpec{Design: "DESIGN.md"}

	return map[string]Spec{
		"estimate":   estimate,
		"threshold":  threshold,
		"sweep":      sweepSpec,
		"simulate":   simulate,
		"exact":      exactSpec,
		"experiment": expSpec,
		"report":     reportSpec,
	}
}

func TestSpecRoundTripLossless(t *testing.T) {
	for name, spec := range sampleSpecs() {
		t.Run(name, func(t *testing.T) {
			if err := spec.Validate(); err != nil {
				t.Fatalf("sample invalid: %v", err)
			}
			data, err := spec.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("round trip failed: %v\n%s", err, data)
			}
			if !reflect.DeepEqual(spec, back) {
				t.Errorf("round trip not lossless:\nhave %+v\nwant %+v", back, spec)
			}
			// A second trip must be byte-stable (canonical form).
			data2, err := back.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(data2) {
				t.Errorf("re-encoding changed bytes:\n%s\nvs\n%s", data, data2)
			}
		})
	}
}

func TestSpecUnknownFieldRejected(t *testing.T) {
	spec := sampleSpecs()["estimate"]
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Inject an unknown top-level field and an unknown nested field.
	corrupt := strings.Replace(string(data), `"version"`, `"bogus":1,"version"`, 1)
	if _, err := ParseSpec([]byte(corrupt)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	corrupt = strings.Replace(string(data), `"n"`, `"nn":1,"n"`, 1)
	if _, err := ParseSpec([]byte(corrupt)); err == nil {
		t.Error("unknown nested field accepted")
	}
	if _, err := ParseSpec([]byte(string(data) + "{}")); err == nil {
		t.Error("trailing data accepted")
	}
	// The experiment task's kernel field is gone: an old spec naming it
	// must fail to parse, not run on an engine it did not ask for.
	exp := `{"version":1,"task":"experiment","experiment":{"id":"E-BASE"%s}}`
	if _, err := ParseSpec([]byte(fmt.Sprintf(exp, ""))); err != nil {
		t.Fatalf("experiment spec rejected: %v", err)
	}
	if _, err := ParseSpec([]byte(fmt.Sprintf(exp, `,"kernel":"lockstep"`))); err == nil {
		t.Error("experiment kernel field accepted")
	}
	// So is the sweep task's lanes field: a sweep runs as one warm chain.
	sw := `{"version":1,"task":"sweep","model":{"kind":"protocol","protocol":{"name":"voter"}},"sweep":{"grid":[64]%s}}`
	if _, err := ParseSpec([]byte(fmt.Sprintf(sw, ""))); err != nil {
		t.Fatalf("sweep spec rejected: %v", err)
	}
	if _, err := ParseSpec([]byte(fmt.Sprintf(sw, `,"lanes":2`))); err == nil {
		t.Error("sweep lanes field accepted")
	}
}

func TestSpecVersionRejected(t *testing.T) {
	spec := sampleSpecs()["estimate"]
	spec.Version = SpecVersion + 1
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(data); err == nil {
		t.Error("future spec version accepted")
	}
}

func TestSpecValidateRejects(t *testing.T) {
	lvModel := &Model{Kind: ModelLV, LV: &LVModel{Beta: 1, Death: 1, Alpha0: 1, Alpha1: 1, Competition: "sd"}}
	cases := map[string]func() Spec{
		"no task options": func() Spec {
			s := New(TaskEstimate)
			s.Model = lvModel
			return s
		},
		"wrong task options": func() Spec {
			s := New(TaskEstimate)
			s.Model = lvModel
			s.Estimate = &EstimateSpec{N: 100, Delta: 20}
			s.Sweep = &SweepSpec{Grid: []int{64}}
			return s
		},
		"missing model": func() Spec {
			s := New(TaskEstimate)
			s.Estimate = &EstimateSpec{N: 100, Delta: 20}
			return s
		},
		"model on experiment": func() Spec {
			s := New(TaskExperiment)
			s.Model = lvModel
			s.Experiment = &ExperimentSpec{ID: "E-DOM"}
			return s
		},
		"parity mismatch": func() Spec {
			s := New(TaskEstimate)
			s.Model = lvModel
			s.Estimate = &EstimateSpec{N: 100, Delta: 19}
			return s
		},
		"bad competition": func() Spec {
			s := New(TaskEstimate)
			s.Model = &Model{Kind: ModelLV, LV: &LVModel{Beta: 1, Death: 1, Alpha0: 1, Alpha1: 1, Competition: "???"}}
			s.Estimate = &EstimateSpec{N: 100, Delta: 20}
			return s
		},
		"unknown protocol": func() Spec {
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "bogus"}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"unknown kernel": func() Spec {
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "voter", Kernel: "warp"}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"per-event kernel": func() Spec {
			// The per-event loop is a test oracle, not an engine a spec
			// can select.
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "3-state-am", Kernel: "per-event"}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"kernel on non-population protocol": func() Spec {
			// "voter" is a gossip protocol: a valid kernel name still
			// cannot apply, and Validate (not Run) must say so.
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "voter", Kernel: KernelBatch}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"bad crn text": func() Spec {
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: "not a network"}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"bad engine": func() Spec {
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: "X -> 0 @ 1\n", Engine: "quantum"}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"nrm engine": func() Spec {
			s := New(TaskThreshold)
			s.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: "X -> 0 @ 1\n", Engine: "nrm"}}
			s.Threshold = &ThresholdSpec{N: 128}
			return s
		},
		"empty sweep grid": func() Spec {
			s := New(TaskSweep)
			s.Model = lvModel
			s.Sweep = &SweepSpec{}
			return s
		},
		"cache path without file policy": func() Spec {
			s := New(TaskSweep)
			s.Model = lvModel
			s.Cache = &CacheSpec{Policy: CacheMemory, Path: "x.json"}
			s.Sweep = &SweepSpec{Grid: []int{64}}
			return s
		},
		"file cache without path": func() Spec {
			s := New(TaskSweep)
			s.Model = lvModel
			s.Cache = &CacheSpec{Policy: CacheFile}
			s.Sweep = &SweepSpec{Grid: []int{64}}
			return s
		},
		"simulate zero runs": func() Spec {
			s := New(TaskSimulate)
			s.Model = lvModel
			s.Simulate = &SimulateSpec{A: 10, B: 10}
			return s
		},
		"exact tie NaN": func() Spec {
			s := New(TaskExact)
			s.Model = lvModel
			s.Exact = &ExactSpec{A: 5, B: 5, Tie: math.NaN()}
			return s
		},
		"exact on protocol model": func() Spec {
			s := New(TaskExact)
			s.Model = &Model{Kind: ModelProtocol, Protocol: &ProtocolModel{Name: "voter"}}
			s.Exact = &ExactSpec{A: 5, B: 5}
			return s
		},
		"experiment without id": func() Spec {
			s := New(TaskExperiment)
			s.Experiment = &ExperimentSpec{}
			return s
		},
		"report with nothing to do": func() Spec {
			s := New(TaskReport)
			s.Report = &ReportSpec{}
			return s
		},
		"report render csv without out": func() Spec {
			s := New(TaskReport)
			s.Report = &ReportSpec{Render: "csv", Manifest: "m.json"}
			return s
		},
	}
	for name, build := range cases {
		s := build()
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSpecsArray(t *testing.T) {
	a := sampleSpecs()["estimate"]
	b := sampleSpecs()["simulate"]
	data, err := marshalSpecList([]Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Task != TaskEstimate || specs[1].Task != TaskSimulate {
		t.Errorf("parsed %d specs, tasks %v %v", len(specs), specs[0].Task, specs[1].Task)
	}
	if _, err := ParseSpecs([]byte("[]")); err == nil {
		t.Error("empty spec list accepted")
	}
}

func TestLocalPaths(t *testing.T) {
	s := New(TaskExperiment)
	s.Experiment = &ExperimentSpec{ID: "E-DOM", CSVDir: "out", ReportDir: "manifests"}
	s.Cache = &CacheSpec{Policy: CacheFile, Path: "probes.json"}
	got := s.LocalPaths()
	if len(got) != 3 {
		t.Errorf("LocalPaths = %v, want 3 entries", got)
	}
	clean := sampleSpecs()["estimate"]
	if paths := clean.LocalPaths(); len(paths) != 0 {
		t.Errorf("clean spec has local paths %v", paths)
	}
}

func TestProtocolRegistry(t *testing.T) {
	names := ProtocolNames()
	if len(names) != 17 {
		t.Errorf("registry has %d protocols: %v", len(names), names)
	}
	for _, name := range names {
		p, err := ProtocolByName(name)
		if err != nil {
			t.Errorf("ProtocolByName(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("protocol %q has an empty name", name)
		}
	}
	if _, err := ProtocolByName("bogus"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestRegistryLVProtocols pins that the registry's LV chains, Cho et al.
// included, are consensus.LVProtocol values: they run on the block path,
// and the benchmark harness asserts the type.
func TestRegistryLVProtocols(t *testing.T) {
	for _, name := range []string{"lv-sd", "lv-nsd", "cho"} {
		p, err := ProtocolByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(consensus.LVProtocol); !ok {
			t.Errorf("%s is a %T, want a consensus.LVProtocol", name, p)
		}
	}
}

// TestChoProtocolPreset checks the Cho et al. preset: the self-destructive
// LV chain with no individual deaths (δ = 0), under its registry label,
// where a large initial gap almost always wins.
func TestChoProtocolPreset(t *testing.T) {
	p, err := ProtocolByName("cho")
	if err != nil {
		t.Fatal(err)
	}
	cho, ok := p.(consensus.LVProtocol)
	if !ok {
		t.Fatalf("cho is a %T, want a consensus.LVProtocol", p)
	}
	if cho.Params != lv.Neutral(1, 0, 1, 0, lv.SelfDestructive) {
		t.Errorf("Cho preset params %v, want delta = 0, self-destructive, unit rates", cho.Params)
	}
	if cho.Name() != "Cho et al. (delta=0, self-destructive LV)" {
		t.Errorf("Cho preset name %q", cho.Name())
	}
	src := rng.New(41)
	wins := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		won, err := cho.Trial(64, 32, src)
		if err != nil {
			t.Fatal(err)
		}
		if won {
			wins++
		}
	}
	if wins < trials*85/100 {
		t.Errorf("Cho model with large gap won only %d/%d", wins, trials)
	}
}
