package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const lvSDNetwork = `
species: X0 X1
X0 -> 2 X0 @ 1
X1 -> 2 X1 @ 1
X0 -> 0 @ 1
X1 -> 0 @ 1
X0 + X1 -> 0 @ 0.5
X1 + X0 -> 0 @ 0.5
`

func writeNetworkFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lv.crn")
	if err := os.WriteFile(path, []byte(lvSDNetwork), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBatchFromFile(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-network", writeNetworkFile(t),
		"-init", "X0=30,X1=20",
		"-runs", "20", "-seed", "5",
	}, strings.NewReader(""), &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"runs:        20", "final X0:", "final X1:", "steps:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceFromStdin(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-init", "X=5", "-trace", "-seed", "2"},
		strings.NewReader("X -> 0 @ 1\n"), &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "init") || !strings.Contains(out, "absorbed") {
		t.Errorf("trace output malformed:\n%s", out)
	}
	if !strings.Contains(out, "X=0") {
		t.Errorf("pure-death chain did not reach extinction:\n%s", out)
	}
}

func TestRunEcho(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-init", "X=1", "-echo", "-runs", "1"},
		strings.NewReader("X -> 0 @ 1\n"), &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "species: X") {
		t.Errorf("echo missing species directive:\n%s", b.String())
	}
}

func TestRunMaxTime(t *testing.T) {
	var b strings.Builder
	// Birth-only chain never absorbs; the time budget must stop it.
	err := run([]string{"-init", "X=10", "-max-time", "0.5", "-seed", "3"},
		strings.NewReader("X -> 2 X @ 1\n"), &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "absorbed:    0") {
		t.Errorf("birth-only chain reported absorption:\n%s", b.String())
	}
}

// TestDumpSpecReplay: -dump-spec followed by -spec must replay the
// identical run. The network text is inlined in the spec, so the replay
// reads neither the file nor stdin.
func TestDumpSpecReplay(t *testing.T) {
	args := []string{"-network", writeNetworkFile(t), "-init", "X0=30,X1=20", "-runs", "20", "-seed", "5"}

	var direct strings.Builder
	if err := run(args, strings.NewReader(""), &direct); err != nil {
		t.Fatal(err)
	}
	var dumped strings.Builder
	if err := run(append(args, "-dump-spec"), strings.NewReader(""), &dumped); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(dumped.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed strings.Builder
	if err := run([]string{"-spec", path}, strings.NewReader(""), &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != direct.String() {
		t.Errorf("spec replay differs:\n--- direct\n%s--- replayed\n%s", direct.String(), replayed.String())
	}
}

// TestEngineSelection drives the leap engine end to end through the spec
// layer and rejects names that are not engines.
func TestEngineSelection(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-init", "X=50", "-runs", "10", "-engine", "leap", "-seed", "2"},
		strings.NewReader("X -> 0 @ 1\n"), &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "runs:        10") {
		t.Errorf("leap output malformed:\n%s", b.String())
	}
	for _, engine := range []string{"warp", "nrm"} {
		var b strings.Builder
		if err := run([]string{"-init", "X=1", "-engine", engine}, strings.NewReader("X -> 0 @ 1\n"), &b); err == nil {
			t.Errorf("unknown engine %q accepted", engine)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-version"}, strings.NewReader(""), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lvmajority") {
		t.Errorf("version output %q", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-network", "/nonexistent/net.crn"},
		{"-init", "Y=5"},  // unknown species
		{"-init", "X"},    // malformed init
		{"-init", "X=-3"}, // negative count
		{"-runs", "0", "-init", "X=1"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, strings.NewReader("X -> 0 @ 1\n"), &b); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunEmptyStdin(t *testing.T) {
	var b strings.Builder
	if err := run(nil, strings.NewReader(""), &b); err == nil {
		t.Error("empty stdin accepted")
	}
}

// TestTraceMatchesFirstRun checks that -trace replays the batch's first
// run for every engine and clock: the trace's last step count and state
// equal those a one-run batch reports.
func TestTraceMatchesFirstRun(t *testing.T) {
	// A subcritical chain keeps step counts below 10^4, which the batch
	// statistics print exactly.
	const network = "X0 -> 2 X0 @ 1\nX1 -> 2 X1 @ 1\nX0 -> 0 @ 1.5\nX1 -> 0 @ 1.5\nX0 + X1 -> 0 @ 0.01\n"
	for _, engine := range []string{"direct", "leap"} {
		for _, maxTime := range []string{"0", "0.8"} {
			args := []string{"-init", "X0=300,X1=200", "-seed", "4", "-engine", engine, "-max-time", maxTime}
			var trace, batch strings.Builder
			if err := run(append(args, "-trace"), strings.NewReader(network), &trace); err != nil {
				t.Fatal(err)
			}
			if err := run(append(args, "-runs", "1"), strings.NewReader(network), &batch); err != nil {
				t.Fatal(err)
			}
			// The last event row: step, event, [time,] then the state.
			var last []string
			for _, line := range strings.Split(trace.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] != "#" && f[0] != "step" {
					last = f
				}
			}
			want := map[string]string{"steps:": last[0]}
			for _, kv := range last[len(last)-2:] {
				name, count, _ := strings.Cut(kv, "=")
				want[name+":"] = count
			}
			got := map[string]string{}
			for _, line := range strings.Split(batch.String(), "\n") {
				f := strings.Fields(line)
				if len(f) > 1 && f[0] == "final" {
					f = f[1:]
				}
				if len(f) > 2 && strings.HasPrefix(f[2], "mean=") {
					got[f[0]] = strings.TrimPrefix(f[2], "mean=")
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("engine %s, max-time %s: trace ends at %v, one-run batch reports %v\n%s",
					engine, maxTime, want, got, batch.String())
			}
		}
	}
}
