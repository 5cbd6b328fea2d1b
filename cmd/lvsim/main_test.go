package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpSpecReplay: -dump-spec followed by -spec must replay the
// identical run.
func TestDumpSpecReplay(t *testing.T) {
	args := []string{"-a", "30", "-b", "20", "-runs", "50", "-seed", "7"}

	var direct strings.Builder
	if err := run(args, &direct); err != nil {
		t.Fatal(err)
	}
	var dumped strings.Builder
	if err := run(append(args, "-dump-spec"), &dumped); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(dumped.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed strings.Builder
	if err := run([]string{"-spec", path}, &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed.String() != direct.String() {
		t.Errorf("spec replay differs:\n--- direct\n%s--- replayed\n%s", direct.String(), replayed.String())
	}
	if err := run([]string{"-spec", path, "-runs", "3"}, &strings.Builder{}); err == nil {
		t.Error("-spec with -runs accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-version"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lvmajority") {
		t.Errorf("version output %q", b.String())
	}
}

func TestRunBatch(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-a", "30", "-b", "20", "-runs", "50", "-seed", "7"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"majority wins:", "consensus time T(S):", "bad events J(S):"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTrace(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-a", "5", "-b", "3", "-trace", "-seed", "3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "init") || !strings.Contains(out, "final state") {
		t.Errorf("trace output malformed:\n%s", out)
	}

	// With -plot as well, both renderings show the same run: the plot's
	// reaction count is the trace's final step count.
	b.Reset()
	if err := run([]string{"-a", "12", "-b", "8", "-seed", "3", "-runs", "1", "-plot", "-trace"}, &b); err != nil {
		t.Fatal(err)
	}
	var plotted, traced int
	for _, line := range strings.Split(b.String(), "\n") {
		if _, tail, ok := strings.Cut(line, "one trajectory ("); ok {
			fmt.Sscanf(tail, "%d reactions", &plotted)
		}
		if head, tail, ok := strings.Cut(line, " after "); ok && strings.HasPrefix(head, "# final state") {
			fmt.Sscanf(tail, "%d steps", &traced)
		}
	}
	if plotted == 0 || plotted != traced {
		t.Errorf("plot shows %d reactions, trace ends after %d steps:\n%s", plotted, traced, b.String())
	}
}

func TestRunPlot(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-a", "40", "-b", "30", "-plot", "-seed", "3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "one trajectory") {
		t.Errorf("plot output malformed:\n%s", b.String())
	}
}

func TestRunNSD(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-a", "20", "-b", "10", "-competition", "nsd", "-runs", "20"}, &b); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-competition", "bogus"},
		{"-a", "-1"},
		{"-beta", "-2"},
		{"-runs", "0"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) did not error", args)
		}
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	// Birth-only chain cannot reach consensus: the budget must surface
	// unresolved runs without hanging.
	var b strings.Builder
	err := run([]string{"-a", "5", "-b", "5", "-delta", "0", "-alpha0", "0", "-alpha1", "0", "-runs", "3", "-max-steps", "100"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "unresolved runs") {
		t.Errorf("output missing unresolved-run report:\n%s", b.String())
	}
}
