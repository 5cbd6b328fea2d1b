package stats

import (
	"math"
	"sort"
	"testing"
)

// The sketch tests are property tests against exact oracles: estimates are
// judged by rank error — where the estimate falls in the empirical CDF of
// the actual sample versus the target quantile — which is the error metric
// the sketch documents. Inputs are generated by a fixed-seed LCG so every
// run sees the same streams.

// lcg is a deterministic uniform generator for test inputs.
type lcg struct{ state uint64 }

func (g *lcg) uniform() float64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return float64(g.state>>11) / (1 << 53)
}

func (g *lcg) normal() float64 {
	// Box-Muller; u1 is bounded away from zero so Log stays finite.
	u1 := g.uniform()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*g.uniform())
}

// testDistributions returns the named input streams the satellite calls
// for: uniform, normal, bimodal, and adversarially sorted.
func testDistributions(n int) map[string][]float64 {
	dists := make(map[string][]float64)

	g := &lcg{state: 20240506}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = g.uniform()
	}
	dists["uniform"] = uniform

	normal := make([]float64, n)
	for i := range normal {
		normal[i] = 10 + 3*g.normal()
	}
	dists["normal"] = normal

	bimodal := make([]float64, n)
	for i := range bimodal {
		if g.uniform() < 0.5 {
			bimodal[i] = -5 + g.normal()
		} else {
			bimodal[i] = 5 + g.normal()
		}
	}
	dists["bimodal"] = bimodal

	sorted := make([]float64, n)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	dists["sorted"] = sorted

	return dists
}

// rankError measures how far estimate sits from the q-quantile in xs's
// empirical CDF: zero when the estimate lands inside the ecdf step covering
// rank q, otherwise the distance to that step.
func rankError(xs []float64, estimate, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	below := sort.SearchFloat64s(sorted, estimate) // count strictly below
	atOrBelow := sort.Search(len(sorted), func(i int) bool { return sorted[i] > estimate })
	lo := float64(below) / float64(len(sorted))
	hi := float64(atOrBelow) / float64(len(sorted))
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return q - hi
	}
	return 0
}

// TestQuantileSketchVsExact: the digest must stay within its documented
// 3/k rank error on all four input shapes, across the quantile range.
func TestQuantileSketchVsExact(t *testing.T) {
	const n = 10000
	const k = 128
	maxRankErr := 3.0 / k
	for name, xs := range testDistributions(n) {
		s := NewQuantileSketch(k)
		for _, x := range xs {
			s.Add(x)
		}
		if s.N() != n {
			t.Fatalf("%s: sketch N=%v, want %d", name, s.N(), n)
		}
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			got, err := s.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if re := rankError(xs, got, q); re > maxRankErr {
				t.Errorf("%s q=%.2f: sketch estimate %.4f has rank error %.4f > %.4f",
					name, q, got, re, maxRankErr)
			}
		}
		if s.Centroids() > 2*k {
			t.Errorf("%s: %d centroids retained, want <= %d", name, s.Centroids(), 2*k)
		}
	}
}

// TestQuantileSketchExtremesExact: Quantile(0) and Quantile(1) return the
// exact stream extremes.
func TestQuantileSketchExtremesExact(t *testing.T) {
	s := NewQuantileSketch(16)
	g := &lcg{state: 99}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 1000; i++ {
		x := g.normal()
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
		s.Add(x)
	}
	if got, _ := s.Quantile(0); got != lo {
		t.Errorf("Quantile(0)=%v, want exact min %v", got, lo)
	}
	if got, _ := s.Quantile(1); got != hi {
		t.Errorf("Quantile(1)=%v, want exact max %v", got, hi)
	}
	if s.Min() != lo || s.Max() != hi {
		t.Errorf("extremes (%v, %v), want (%v, %v)", s.Min(), s.Max(), lo, hi)
	}
}

// TestQuantileSketchDeterministic: equal insertion sequences produce equal
// centroid states and equal answers.
func TestQuantileSketchDeterministic(t *testing.T) {
	build := func() float64 {
		s := NewQuantileSketch(64)
		g := &lcg{state: 11}
		for i := 0; i < 5000; i++ {
			s.Add(g.normal())
		}
		v, _ := s.Quantile(0.75)
		return v
	}
	if a, b := build(), build(); a != b {
		t.Errorf("sketch not deterministic: %v vs %v", a, b)
	}
}

// TestQuantileSketchIgnoresBadInput: NaN and non-positive weights must not
// poison the summary.
func TestQuantileSketchIgnoresBadInput(t *testing.T) {
	s := NewQuantileSketch(16)
	s.Add(math.NaN())
	s.AddWeighted(1, 0)
	s.AddWeighted(1, -1)
	s.AddWeighted(1, math.NaN())
	if s.N() != 0 {
		t.Fatalf("bad inputs counted: N=%v", s.N())
	}
	s.Add(5)
	if v, _ := s.Quantile(0.5); v != 5 {
		t.Errorf("quantile after bad inputs %v, want 5", v)
	}
}

// TestRunningVsTwoPass: the Welford accumulator must agree with the
// textbook two-pass mean and variance to 1e-12 relative error.
func TestRunningVsTwoPass(t *testing.T) {
	const n = 10000
	for name, xs := range testDistributions(n) {
		var r Running
		for _, x := range xs {
			r.Add(x)
		}

		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		variance := ss / float64(len(xs)-1)

		if re := relErr(r.Mean(), mean); re > 1e-12 {
			t.Errorf("%s: Welford mean %v vs two-pass %v (rel err %v)", name, r.Mean(), mean, re)
		}
		if re := relErr(r.Variance(), variance); re > 1e-12 {
			t.Errorf("%s: Welford variance %v vs two-pass %v (rel err %v)", name, r.Variance(), variance, re)
		}
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
