package exact

import (
	"math"
	"testing"

	"lvmajority/internal/lv"
	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func TestOptionsValidation(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	if _, err := Solve(params, Options{Max: 0}); err == nil {
		t.Error("zero ceiling accepted")
	}
	if _, err := Solve(params, Options{Max: 10, TieValue: 1.5}); err == nil {
		t.Error("tie value > 1 accepted")
	}
	if _, err := Solve(params, Options{Max: 10, TieValue: math.NaN()}); err == nil {
		t.Error("NaN tie value accepted")
	}
	if _, err := Solve(lv.Params{Beta: -1, Competition: lv.SelfDestructive}, Options{Max: 10}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestBoundaryConditions(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	sol, err := Solve(params, Options{Max: 20, TieValue: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= 20; a++ {
		if v, err := sol.Rho(a, 0); err != nil || v != 1 {
			t.Errorf("Rho(%d, 0) = %v, %v; want 1", a, v, err)
		}
		if v, err := sol.Rho(0, a); err != nil || v != 0 {
			t.Errorf("Rho(0, %d) = %v, %v; want 0", a, v, err)
		}
	}
	if v, _ := sol.Rho(0, 0); v != 0.5 {
		t.Errorf("Rho(0,0) = %v, want the tie value 0.5", v)
	}
	if _, err := sol.Rho(21, 0); err == nil {
		t.Error("out-of-grid state accepted")
	}
}

func TestTheorem20ExactGrid(t *testing.T) {
	// SD with total interspecific constant alpha = gamma: with the fair
	// tiebreak, rho(a,b) = a/(a+b) exactly at every state.
	params := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5},
		Gamma:       [2]float64{1, 1},
		Competition: lv.SelfDestructive,
	}
	sol, err := Solve(params, Options{Max: 60, TieValue: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Check away from the truncation boundary.
	for a := 1; a <= 20; a++ {
		for b := 1; b <= 20; b++ {
			want := float64(a) / float64(a+b)
			got, err := sol.Rho(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 2e-3 {
				t.Errorf("Rho(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestTheorem23ExactGrid(t *testing.T) {
	// NSD with gamma = 2*alpha (sum convention): rho(a,b) = a/(a+b). NSD
	// chains cannot reach (0,0), so the tie value is irrelevant.
	params := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5},
		Gamma:       [2]float64{1, 1},
		Competition: lv.NonSelfDestructive,
	}
	sol, err := Solve(params, Options{Max: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range [][2]int{{1, 1}, {3, 1}, {10, 5}, {20, 15}} {
		want := float64(st[0]) / float64(st[0]+st[1])
		got, err := sol.Rho(st[0], st[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 2e-3 {
			t.Errorf("Rho(%d,%d) = %v, want %v", st[0], st[1], got, want)
		}
	}
}

func TestStrictTieValueMatchesMonteCarlo(t *testing.T) {
	// With TieValue = 0 the grid solution must match the strict
	// Monte-Carlo estimate (the paper's definition).
	if testing.Short() {
		t.Skip("statistical test")
	}
	params := lv.Params{
		Beta: 1, Delta: 1,
		Alpha:       [2]float64{0.5, 0.5},
		Gamma:       [2]float64{1, 1},
		Competition: lv.SelfDestructive,
	}
	sol, err := Solve(params, Options{Max: 60, TieValue: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sol.Rho(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	const trials = 30000
	wins := 0
	for i := 0; i < trials; i++ {
		out, err := lv.Run(params, lv.State{X0: 10, X1: 5}, src, lv.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Consensus && out.MajorityWon {
			wins++
		}
	}
	est, err := stats.WilsonInterval(wins, trials, stats.Z999)
	if err != nil {
		t.Fatal(err)
	}
	if est.Lo > want || est.Hi < want {
		t.Errorf("exact rho = %v outside Monte-Carlo CI %v", want, est)
	}
}

func TestNeutralSymmetry(t *testing.T) {
	// For a neutral chain with the fair tiebreak, rho(a,b) + rho(b,a) = 1.
	params := lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)
	sol, err := Solve(params, Options{Max: 40, TieValue: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= 12; a++ {
		for b := 1; b <= 12; b++ {
			ab, err := sol.Rho(a, b)
			if err != nil {
				t.Fatal(err)
			}
			ba, err := sol.Rho(b, a)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(ab+ba-1) > 1e-6 {
				t.Errorf("rho(%d,%d)+rho(%d,%d) = %v, want 1", a, b, b, a, ab+ba)
			}
		}
	}
}

func TestRhoMonotoneInGap(t *testing.T) {
	// rho should be non-decreasing in a and non-increasing in b.
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	sol, err := Solve(params, Options{Max: 40, TieValue: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= 15; a++ {
		for b := 1; b <= 15; b++ {
			v, _ := sol.Rho(a, b)
			up, _ := sol.Rho(a+1, b)
			if up < v-1e-9 {
				t.Errorf("rho not monotone in a at (%d,%d): %v -> %v", a, b, v, up)
			}
			down, _ := sol.Rho(a, b+1)
			if down > v+1e-9 {
				t.Errorf("rho not anti-monotone in b at (%d,%d): %v -> %v", a, b, v, down)
			}
		}
	}
}

func TestSolveWithSteps(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	sol, err := SolveWithSteps(params, Options{Max: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Expected consensus time must be positive and increasing along the
	// diagonal.
	prev := 0.0
	for k := 1; k <= 12; k++ {
		v, err := sol.Steps(k, k)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Errorf("E[T(%d,%d)] = %v not increasing (prev %v)", k, k, v, prev)
		}
		prev = v
	}
	// Steps from (1,1): under beta=delta=1, alpha=1 each: compute a loose
	// sanity band rather than an exact value.
	v, err := sol.Steps(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 || v > 20 {
		t.Errorf("E[T(1,1)] = %v, outside sanity band", v)
	}
}

func TestStepsRequiresSolveWithSteps(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	sol, err := Solve(params, Options{Max: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sol.Steps(2, 2); err == nil {
		t.Error("Steps on a rho-only solution did not error")
	}
}

func TestStepsMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	params := lv.Neutral(1, 1, 1, 0, lv.NonSelfDestructive)
	sol, err := SolveWithSteps(params, Options{Max: 80})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sol.Steps(15, 10)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	var acc stats.Running
	for i := 0; i < 20000; i++ {
		out, err := lv.Run(params, lv.State{X0: 15, X1: 10}, src, lv.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(float64(out.Steps))
	}
	if math.Abs(acc.Mean()-want) > 5*acc.StdErr()+0.01*want {
		t.Errorf("mean T = %v, exact %v", acc.Mean(), want)
	}
}

func TestErrorBoundSmallAwayFromCeiling(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	bound, err := ErrorBound(params, 8, 5, Options{Max: 60, TieValue: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if bound > 1e-6 {
		t.Errorf("truncation sensitivity %v at (8,5) with ceiling 60", bound)
	}
	if _, err := ErrorBound(params, 59, 5, Options{Max: 60}); err == nil {
		t.Error("state outside reduced grid accepted")
	}
}

func TestMaxAccessor(t *testing.T) {
	params := lv.Neutral(1, 1, 1, 0, lv.SelfDestructive)
	sol, err := Solve(params, Options{Max: 17})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Max() != 17 {
		t.Errorf("Max = %d, want 17", sol.Max())
	}
}
