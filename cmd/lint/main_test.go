package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetToolInterruptRegression rebuilds the vettool and proves the bug
// class PR 5 fixed by hand-audit — an option literal dropping an available
// Interrupt — now fails `go vet -vettool` mechanically: a scratch module
// reintroducing the omission is rejected, and threading the interrupt
// through the same literal makes the run pass. Run outside go vet on the
// same module, the tool analyses nothing: it prints its usage line and
// exits 2.
func TestVetToolInterruptRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and vets a scratch module")
	}
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "lintbin")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	scratch := t.TempDir()
	writeFile(t, filepath.Join(scratch, "go.mod"), "module scratch\n\ngo 1.24\n")

	const dropped = `package scratch

import "context"

type Options struct {
	Trials    int
	Interrupt func() error
}

func Run(opts Options) int { return opts.Trials }

func Estimate(ctx context.Context) int {
	_ = ctx
	return Run(Options{Trials: 100})
}
`
	writeFile(t, filepath.Join(scratch, "scratch.go"), dropped)

	direct := exec.Command(bin, "./...")
	direct.Dir = scratch
	direct.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	raw, err := direct.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("lint ./... returned %v, want exit status 2:\n%s", err, raw)
	}
	if !strings.HasPrefix(string(raw), "usage: ") || strings.Contains(string(raw), "Interrupt") {
		t.Fatalf("lint ./... analysed the module instead of printing its usage:\n%s", raw)
	}

	out, err := runVet(t, scratch, bin)
	if err == nil {
		t.Fatalf("go vet passed on a literal that drops an available Interrupt:\n%s", out)
	}
	if !strings.Contains(out, "leaves Interrupt unset") {
		t.Fatalf("go vet failed for the wrong reason:\n%s", out)
	}

	threaded := strings.Replace(dropped,
		"Options{Trials: 100}",
		"Options{Trials: 100, Interrupt: ctx.Err}", 1)
	writeFile(t, filepath.Join(scratch, "scratch.go"), threaded)
	if out, err := runVet(t, scratch, bin); err != nil {
		t.Fatalf("go vet failed on the threaded variant: %v\n%s", err, out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runVet(t *testing.T, dir, vettool string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+vettool, "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	return string(out), err
}
