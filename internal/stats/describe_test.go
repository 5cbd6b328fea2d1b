package stats

import (
	"math"
	"testing"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Fatal("zero-value Running is not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d, want 8", r.N())
	}
	if got := r.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4, so sample variance is 4*8/7.
	if got, want := r.Variance(), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 {
		t.Errorf("Variance with one sample = %v, want 0", r.Variance())
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Errorf("Min/Max = %v/%v, want 3.5/3.5", r.Min(), r.Max())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 2},
		{0.5, 3},
		{0.75, 4},
		{1, 5},
		{0.125, 1.5},
	}
	for _, tc := range cases {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tc.q, err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(empty) did not error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("Quantile(q<0) did not error")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("Quantile(q>1) did not error")
	}
}

func TestQuantileSingle(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.99)
	if err != nil || got != 42 {
		t.Errorf("Quantile single = %v, %v; want 42, nil", got, err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
}

func TestHarmonicNumber(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{-3, 0},
		{1, 1},
		{2, 1.5},
		{4, 1 + 0.5 + 1.0/3 + 0.25},
	}
	for _, tc := range cases {
		if got := HarmonicNumber(tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("HarmonicNumber(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// H_n >= ln n (used by the paper's Lemma 16).
	for _, n := range []int{10, 100, 1000} {
		if got := HarmonicNumber(n); got < math.Log(float64(n)) {
			t.Errorf("H_%d = %v < ln %d = %v", n, got, n, math.Log(float64(n)))
		}
	}
}
