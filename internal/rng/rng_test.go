package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with distinct seeds collided %d/%d times", same, n)
	}
}

func TestZeroSeedValid(t *testing.T) {
	src := New(0)
	if src.s == [4]uint64{} {
		t.Fatal("New(0) produced the invalid all-zero state")
	}
	// The generator must not be stuck.
	first := src.Uint64()
	second := src.Uint64()
	if first == second {
		t.Errorf("suspiciously constant output: %d, %d", first, second)
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(7)
	for i := 0; i < 100000; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v, want in [0, 1)", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	src := New(11)
	const n = 1 << 20
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		f := src.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("variance = %v, want ~1/12", variance)
	}
}

func TestIntnRange(t *testing.T) {
	src := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := src.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d, out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	src := New(5)
	const buckets = 8
	const n = 80000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[src.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%.0f", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	src := New(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			src.Intn(n)
		}()
	}
}

func TestUint64NRange(t *testing.T) {
	src := New(9)
	err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := src.Uint64N(n)
		return v < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// Parent and child streams should not be visibly correlated: count
	// exact collisions over a window.
	same := 0
	const n = 4096
	for i := 0; i < n; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and child collided %d/%d times", same, n)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(123).Split()
	b := New(123).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split is not deterministic at step %d", i)
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	src := New(17)
	for i := 0; i < 100; i++ {
		if src.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !src.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if src.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !src.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	src := New(19)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		const n = 100000
		hits := 0
		for i := 0; i < n; i++ {
			if src.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("Bernoulli(%v) empirical mean %v, want within %v", p, got, tol)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	src := New(23)
	const n = 100
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	src.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, n)
	for _, v := range vals {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("shuffle is not a permutation: %v", vals)
		}
		seen[v] = true
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	src := New(29)
	const n = 5
	const trials = 50000
	var counts [n]int
	for trial := 0; trial < trials; trial++ {
		vals := [n]int{0, 1, 2, 3, 4}
		src.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		counts[vals[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d first %d times, want ~%.0f", v, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		_ = src.Float64()
	}
}
