package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleState(t *testing.T) {
	var b strings.Builder
	err := run([]string{
		"-a", "10", "-b", "5",
		"-alpha0", "0.5", "-alpha1", "0.5",
		"-gamma0", "1", "-gamma1", "1",
		"-tie", "0.5", "-steps",
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Theorem 20 regime: exact 2/3.
	if !strings.Contains(out, "rho(10, 5) = 0.666") {
		t.Errorf("output missing exact value:\n%s", out)
	}
	if !strings.Contains(out, "E[T(10, 5)]") {
		t.Errorf("output missing expected time:\n%s", out)
	}
}

func TestRunTable(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-table", "4", "-competition", "nsd"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "a\\b") {
		t.Errorf("table output malformed:\n%s", out)
	}
	// Diagonal of a neutral chain: 0.5 everywhere.
	if !strings.Contains(out, "0.5000") {
		t.Errorf("table missing the neutral diagonal:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-competition", "bogus"},
		{"-tie", "2"},
		{"-tie", "NaN"},
		{"-beta", "-1"},
		{"-zzz"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("run(%v) did not error", args)
		}
	}
}

func TestRunWithNetworkFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nn.crn")
	// Non-neutral NSD chain: minority (X1) reproduces twice as fast.
	text := `species: X0 X1
X0 -> 2 X0 @ 1
X1 -> 2 X1 @ 2
X0 -> 0 @ 1
X1 -> 0 @ 1
X0 + X1 -> X0 @ 1
X1 + X0 -> X1 @ 1
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-network", path, "-a", "10", "-b", "5", "-max", "50"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "rho(10, 5)") || !strings.Contains(out, "network") {
		t.Errorf("network solve output malformed:\n%s", out)
	}
}

// TestDumpSpecReplay: -dump-spec followed by -spec must replay the
// identical run.
func TestDumpSpecReplay(t *testing.T) {
	args := []string{"-a", "10", "-b", "5", "-gamma0", "1", "-gamma1", "1", "-tie", "0.5", "-steps"}

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

func TestRunWithNetworkErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-network", "/nonexistent.crn"}, &b); err == nil {
		t.Error("missing network file accepted")
	}
	path := filepath.Join(t.TempDir(), "three.crn")
	if err := os.WriteFile(path, []byte("A + B -> C @ 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-network", path}, &b); err == nil {
		t.Error("three-species network accepted")
	}
}
