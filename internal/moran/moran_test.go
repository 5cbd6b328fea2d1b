package moran

import (
	"math"
	"testing"
	"testing/quick"

	"lvmajority/internal/rng"
	"lvmajority/internal/stats"
)

func TestParamsValidate(t *testing.T) {
	for _, r := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := (Params{Fitness: r}).Validate(); err == nil {
			t.Errorf("fitness %v accepted", r)
		}
	}
	if err := (Params{Fitness: 1}).Validate(); err != nil {
		t.Errorf("neutral fitness rejected: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := Run(Params{Fitness: 1}, 0, 0, src); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Run(Params{Fitness: 1}, 10, 11, src); err == nil {
		t.Error("a > n accepted")
	}
	if _, err := Run(Params{Fitness: 1}, 10, -1, src); err == nil {
		t.Error("a < 0 accepted")
	}
}

func TestRunAbsorbingStarts(t *testing.T) {
	src := rng.New(2)
	out, err := Run(Params{Fitness: 1}, 10, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Fixed0 || out.JumpSteps != 0 || out.MoranSteps != 0 {
		t.Errorf("start at fixation: %+v", out)
	}
	out, err = Run(Params{Fitness: 1}, 10, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fixed0 || out.JumpSteps != 0 {
		t.Errorf("start at extinction: %+v", out)
	}
}

func TestFixationProbabilityBoundaries(t *testing.T) {
	for _, r := range []float64{0.5, 1, 2} {
		if got := FixationProbability(r, 50, 0); got != 0 {
			t.Errorf("r=%g: rho(0) = %g, want 0", r, got)
		}
		if got := FixationProbability(r, 50, 50); got != 1 {
			t.Errorf("r=%g: rho(n) = %g, want 1", r, got)
		}
	}
	if !math.IsNaN(FixationProbability(1, 10, 11)) {
		t.Error("invalid state did not return NaN")
	}
}

func TestFixationProbabilityNeutral(t *testing.T) {
	for _, tc := range []struct{ n, a int }{{10, 3}, {100, 60}, {7, 7}} {
		want := float64(tc.a) / float64(tc.n)
		if got := FixationProbability(1, tc.n, tc.a); math.Abs(got-want) > 1e-12 {
			t.Errorf("neutral rho(%d/%d) = %g, want %g", tc.a, tc.n, got, want)
		}
	}
}

// TestFixationProbabilityContinuityAtNeutral checks that the general
// formula converges to the neutral limit a/n as r → 1, the regime where
// naive evaluation of (1−r^−a)/(1−r^−n) loses all precision.
func TestFixationProbabilityContinuityAtNeutral(t *testing.T) {
	const n, a = 1000, 700
	want := FixationProbability(1, n, a)
	for _, eps := range []float64{1e-6, 1e-9, 1e-12} {
		for _, r := range []float64{1 + eps, 1 - eps} {
			got := FixationProbability(r, n, a)
			if math.Abs(got-want) > 1e-3 {
				t.Errorf("rho(r=%v) = %v, far from neutral %v", r, got, want)
			}
		}
	}
}

// TestFixationProbabilityMonotone checks monotonicity in both the initial
// count and the fitness via testing/quick.
func TestFixationProbabilityMonotone(t *testing.T) {
	inCount := func(seed uint8) bool {
		n := 2 + int(seed%64)
		r := []float64{0.5, 1, 3}[seed%3]
		prev := 0.0
		for a := 0; a <= n; a++ {
			cur := FixationProbability(r, n, a)
			if cur < prev-1e-12 || cur < 0 || cur > 1 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(inCount, nil); err != nil {
		t.Errorf("not monotone in a: %v", err)
	}
	inFitness := func(seed uint8) bool {
		n := 3 + int(seed%40)
		a := 1 + int(seed)%(n-1)
		prev := 0.0
		for _, r := range []float64{0.25, 0.5, 1, 2, 4, 8} {
			cur := FixationProbability(r, n, a)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(inFitness, nil); err != nil {
		t.Errorf("not monotone in r: %v", err)
	}
}

// TestRunMatchesExactFixation verifies the simulator against the closed
// form in neutral, advantageous, and deleterious regimes.
func TestRunMatchesExactFixation(t *testing.T) {
	cases := []struct {
		name string
		r    float64
		n, a int
	}{
		{"neutral", 1, 100, 60},
		{"advantageous", 2, 60, 5},
		{"deleterious", 0.8, 60, 30},
	}
	const trials = 4000
	src := rng.New(77)
	for _, tc := range cases {
		fixed := 0
		for i := 0; i < trials; i++ {
			out, err := Run(Params{Fitness: tc.r}, tc.n, tc.a, src)
			if err != nil {
				t.Fatal(err)
			}
			if out.Fixed0 {
				fixed++
			}
		}
		est, err := stats.WilsonInterval(fixed, trials, stats.Z99)
		if err != nil {
			t.Fatal(err)
		}
		want := FixationProbability(tc.r, tc.n, tc.a)
		if want < est.Lo || want > est.Hi {
			t.Errorf("%s: CI [%.4f, %.4f] misses exact %.4f", tc.name, est.Lo, est.Hi, want)
		}
	}
}

// expectedJumpSteps returns the exact expected number of state-changing
// steps before absorption, i.e. the expected duration of the embedded
// gambler's-ruin walk from a with boundaries 0 and n and up-probability
// p = r/(1+r). For the neutral process this is a(n−a). It is the test
// oracle for Run's jump-step count.
func expectedJumpSteps(r float64, n, a int) float64 {
	if n < 1 || a < 0 || a > n {
		return math.NaN()
	}
	if a == 0 || a == n {
		return 0
	}
	if r == 1 {
		return float64(a) * float64(n-a)
	}
	p := r / (1 + r)
	q := 1 - p
	// Standard biased gambler's-ruin duration:
	//   E[T] = a/(q−p) − n/(q−p) · (1−(q/p)^a)/(1−(q/p)^n).
	ratio := q / p
	fa, fn := float64(a), float64(n)
	frac := -math.Expm1(fa*math.Log(ratio)) / -math.Expm1(fn*math.Log(ratio))
	return fa/(q-p) - fn/(q-p)*frac
}

func TestExpectedJumpStepsNeutral(t *testing.T) {
	if got := expectedJumpSteps(1, 100, 30); got != 30*70 {
		t.Errorf("neutral expected jumps = %g, want %d", got, 30*70)
	}
	if got := expectedJumpSteps(1, 10, 0); got != 0 {
		t.Errorf("absorbed start has expected jumps %g", got)
	}
}

// TestExpectedJumpStepsMatchesSimulation validates the biased
// gambler's-ruin duration formula against the simulator.
func TestExpectedJumpStepsMatchesSimulation(t *testing.T) {
	cases := []struct {
		r    float64
		n, a int
	}{
		{1, 40, 10},
		{2, 40, 10},
		{0.5, 40, 30},
	}
	const trials = 3000
	src := rng.New(88)
	for _, tc := range cases {
		var acc stats.Running
		for i := 0; i < trials; i++ {
			out, err := Run(Params{Fitness: tc.r}, tc.n, tc.a, src)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(float64(out.JumpSteps))
		}
		want := expectedJumpSteps(tc.r, tc.n, tc.a)
		tol := 5 * acc.StdErr()
		if math.Abs(acc.Mean()-want) > tol {
			t.Errorf("r=%g a=%d: mean jumps %.1f vs exact %.1f (tol %.1f)",
				tc.r, tc.a, acc.Mean(), want, tol)
		}
	}
}

// TestMoranStepsDominateJumpSteps checks the holding-step accounting: the
// total step count includes every jump plus a non-negative number of
// holding steps.
func TestMoranStepsDominateJumpSteps(t *testing.T) {
	src := rng.New(9)
	for i := 0; i < 50; i++ {
		out, err := Run(Params{Fitness: 1.5}, 30, 10, src)
		if err != nil {
			t.Fatal(err)
		}
		if out.MoranSteps < int64(out.JumpSteps) {
			t.Fatalf("MoranSteps %d < JumpSteps %d", out.MoranSteps, out.JumpSteps)
		}
	}
}

func TestProtocolValidation(t *testing.T) {
	p := &Protocol{Fitness: 1}
	src := rng.New(1)
	if _, err := p.Trial(1, 0, src); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := p.Trial(100, 3, src); err == nil {
		t.Error("parity violation accepted")
	}
	if _, err := p.Trial(100, 20, src); err != nil {
		t.Errorf("feasible trial rejected: %v", err)
	}
}

// TestProtocolNeutralWinProbability ties the protocol adapter back to the
// closed form: with gap Δ the majority starts at a = (n+Δ)/2 and must win
// with probability a/n — a linear, not high-probability, amplifier, exactly
// like the paper's no-competition LV regime.
func TestProtocolNeutralWinProbability(t *testing.T) {
	const (
		n      = 100
		delta  = 20
		trials = 4000
	)
	p := &Protocol{Fitness: 1}
	src := rng.New(4)
	wins := 0
	for i := 0; i < trials; i++ {
		ok, err := p.Trial(n, delta, src)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			wins++
		}
	}
	est, err := stats.WilsonInterval(wins, trials, stats.Z99)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n+delta) / 2 / float64(n)
	if want < est.Lo || want > est.Hi {
		t.Errorf("CI [%.4f, %.4f] misses a/n = %.4f", est.Lo, est.Hi, want)
	}
}

func TestProtocolDeterministic(t *testing.T) {
	p := &Protocol{Fitness: 1.2}
	for seed := uint64(0); seed < 10; seed++ {
		r1, err1 := p.Trial(200, 10, rng.New(seed))
		r2, err2 := p.Trial(200, 10, rng.New(seed))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1 != r2 {
			t.Fatalf("seed %d: non-deterministic trial", seed)
		}
	}
}
