package ode

import (
	"math"
	"testing"
)

func TestAdaptiveValidation(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 0 }
	if _, err := Adaptive(nil, []float64{1}, 0, 1, AdaptiveOptions{}); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := Adaptive(f, nil, 0, 1, AdaptiveOptions{}); err == nil {
		t.Error("empty state accepted")
	}
	if _, err := Adaptive(f, []float64{1}, 1, 0, AdaptiveOptions{}); err == nil {
		t.Error("reversed interval accepted")
	}
}

func TestAdaptiveExponential(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = y[0] }
	res, err := Adaptive(f, []float64{1}, 0, 5, AdaptiveOptions{AbsTol: 1e-10, RelTol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(5)
	if math.Abs(res.Y[0]-want)/want > 1e-7 {
		t.Errorf("y(5) = %v, want %v", res.Y[0], want)
	}
	if res.T != 5 {
		t.Errorf("T = %v, want 5", res.T)
	}
}

func TestAdaptiveLogisticClosedForm(t *testing.T) {
	// y' = y(1−y), y(0)=0.1 → y(t) = 1/(1 + 9e^{−t}).
	f := func(_ float64, y, dydt []float64) { dydt[0] = y[0] * (1 - y[0]) }
	res, err := Adaptive(f, []float64{0.1}, 0, 4, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 + 9*math.Exp(-4))
	if math.Abs(res.Y[0]-want) > 1e-5 {
		t.Errorf("y(4) = %v, want %v", res.Y[0], want)
	}
}

func TestAdaptiveStopPredicate(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	res, err := Adaptive(f, []float64{0}, 0, 100, AdaptiveOptions{
		Stop: func(_ float64, y []float64) bool { return y[0] >= 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("stop predicate did not trigger")
	}
	if res.T >= 100 || res.Y[0] < 1 {
		t.Errorf("stopped at t=%v y=%v", res.T, res.Y[0])
	}
}

func TestAdaptiveZeroLengthInterval(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = 1 }
	res, err := Adaptive(f, []float64{7}, 2, 2, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Y[0] != 7 || res.T != 2 {
		t.Errorf("result = %+v, want unchanged state", res)
	}
}

func TestAdaptiveUsesFewStepsOnSmoothProblems(t *testing.T) {
	f := func(_ float64, y, dydt []float64) { dydt[0] = -y[0] }
	res, err := Adaptive(f, []float64{1}, 0, 10, AdaptiveOptions{AbsTol: 1e-6, RelTol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps > 300 {
		t.Errorf("adaptive integrator used %d steps on a smooth decay", res.Steps)
	}
}
