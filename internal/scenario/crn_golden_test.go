package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lvmajority/internal/consensus"
	"lvmajority/internal/crn"
	"lvmajority/internal/exploit"
	"lvmajority/internal/lv"
	"lvmajority/internal/protocols"
	"lvmajority/internal/rng"
)

// crnGoldenPath pins every output that runs a CRN simulator.
var crnGoldenPath = filepath.Join("testdata", "crn_golden.json")

// crnGoldenSimulate is a subcritical two-species LV network: the runs
// absorb within the step budget, and at these counts the tau-leap engine
// both leaps and falls back to exact steps.
const crnGoldenSimulate = `species: X0 X1
X0 -> 2 X0 @ 1
X1 -> 2 X1 @ 1
X0 -> 0 @ 1.1
X1 -> 0 @ 1.1
X0 + X1 -> 0 @ 0.005
`

// crnGoldenEstimate is the paper's SD chain written as an explicit CRN.
const crnGoldenEstimate = "X0 -> 2 X0 @ 1\nX1 -> 2 X1 @ 1\nX0 -> 0 @ 1\nX1 -> 0 @ 1\nX0 + X1 -> 0 @ 2\n"

// crnGoldenEntries computes every pinned output, keyed by a stable name.
// Each value is the JSON of the full-precision result, so any shift of a
// random stream, a clock choice or a step count changes it.
func crnGoldenEntries(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	out := make(map[string]json.RawMessage)
	put := func(key string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = data
	}
	r := &Runner{Now: zeroNow}
	for _, engine := range []string{"", crn.EngineDirect, crn.EngineLeap} {
		for _, maxTime := range []float64{0, 1.5} {
			spec := New(TaskSimulate)
			spec.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: crnGoldenSimulate, Engine: engine}}
			spec.Seed = 17
			spec.Simulate = &SimulateSpec{
				Runs: 6, Init: map[string]int{"X0": 300, "X1": 200},
				MaxSteps: 400_000, MaxTime: maxTime,
			}
			res, err := r.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("simulate engine %q max_time %v: %v", engine, maxTime, err)
			}
			put(fmt.Sprintf("simulate/engine=%s/max_time=%v", engine, maxTime), res.Manifests[0].Tables[0].Cells)
		}
		spec := New(TaskEstimate)
		spec.Model = &Model{Kind: ModelCRN, CRN: &CRNModel{Text: crnGoldenEstimate, Engine: engine}}
		spec.Seed = 9
		spec.Estimate = &EstimateSpec{N: 40, Delta: 2, Trials: 120}
		res, err := r.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("estimate engine %q: %v", engine, err)
		}
		put(fmt.Sprintf("estimate/engine=%s", engine), res.Estimate)
	}

	estimate := func(key string, p consensus.Protocol, n, delta, trials int) {
		est, err := consensus.EstimateWinProbability(p, n, delta, consensus.EstimateOptions{Trials: trials, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		put(key, est)
	}
	for _, v := range []protocols.CRNVariant{protocols.SingleB, protocols.DoubleB, protocols.HeavyB, protocols.TriMajority} {
		estimate(fmt.Sprintf("condon/%d", v), protocols.CondonProtocol{Variant: v}, 48, 6, 120)
	}
	estimate("general-lv", &protocols.GeneralLVProtocol{
		Params: protocols.GeneralLVParams{
			Beta: [2]float64{1, 0.9}, Delta: [2]float64{1, 1},
			Alpha: [2]float64{1, 1.2}, Competition: lv.NonSelfDestructive,
		},
	}, 40, 6, 120)
	chemostat, err := ProtocolByName("chemostat")
	if err != nil {
		t.Fatal(err)
	}
	estimate("chemostat", chemostat, 16, 4, 12)

	params := exploit.Params{
		Lambda: 60, Mu: 1, Beta: 0.2, Delta: 1, R0: 10,
		Alpha: [2]float64{0.05, 0.05}, Competition: lv.SelfDestructive,
	}
	for seed := uint64(1); seed <= 5; seed++ {
		o, err := exploit.Run(params, 12, 8, rng.New(seed), exploit.RunOptions{MaxSteps: 1_000_000})
		if err != nil {
			t.Fatalf("exploit.Run seed %d: %v", seed, err)
		}
		put(fmt.Sprintf("exploit-run/seed=%d", seed), o)
	}
	return out
}

// TestCRNOutputsGolden pins the outputs of every path that runs a CRN
// simulator — the CRN simulate task per engine and clock, CRN-model
// estimates per engine, the Condon, general-LV and chemostat baselines,
// and exploit.Run — to a committed golden file. Regenerate with
// `go test ./internal/scenario -run TestCRNOutputsGolden -update` only
// after an intentional change of the simulated chains.
func TestCRNOutputsGolden(t *testing.T) {
	data, err := json.MarshalIndent(crnGoldenEntries(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.WriteFile(crnGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(crnGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(golden) != string(data) {
		t.Errorf("CRN outputs drifted from %s:\nhave %s\nwant %s", crnGoldenPath, data, golden)
	}
}
