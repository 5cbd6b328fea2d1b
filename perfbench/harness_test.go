package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestHarness runs every workload at a tiny size, traced and untraced, and
// checks that the result line names every metric of BENCHMARK.json with its
// unit, and that a perturbed threshold or estimate is counted as failed.
func TestHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bench, serve := filepath.Join(dir, "perfbench"), filepath.Join(dir, "serve")
	for _, b := range [][]string{{bench, "."}, {serve, "lvmajority/cmd/serve"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	run := func(t *testing.T, args ...string) resultLine {
		t.Helper()
		cmd := exec.Command(bench, append([]string{"--seed", "5", "--seconds", "1", "--tiny", "--serve-bin", serve}, args...)...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line is not a result: %v", args, err)
		}
		if res.Attempted < 1 {
			t.Errorf("%v: attempted %d", args, res.Attempted)
		}
		return res
	}

	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for trace, want := range map[string][]metricDef{"0": spec.EndToEnd, "1": spec.PerLayer} {
				res := run(t, "--workload", w.Name, "--trace", trace)
				if !res.Correct || res.Failed != 0 {
					t.Errorf("trace %s: correct=%v failed=%d/%d", trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("trace %s: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %s: metric %s has unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					}
				}
			}
			for _, kind := range []string{"threshold", "estimate"} {
				res := run(t, "--workload", w.Name, "--trace", "0", "--perturb", kind)
				if res.Failed < 1 || res.Correct {
					t.Errorf("perturbed %s: failed=%d/%d correct=%v, want the perturbation counted",
						kind, res.Failed, res.Attempted, res.Correct)
				}
			}
		})
	}
}
