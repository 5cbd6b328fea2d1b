package rng

import (
	"math"
	"testing"
)

// TestLogMatchesMathLog checks log bit for bit against math.Log, which on
// amd64 is the assembly routine that log ports, on about 20 M inputs (2 M
// with -short):
//   - random bit patterns, of every sign, exponent and payload, with the
//     special values (±0, ±Inf, NaNs of either sign, the subnormal
//     extremes) and random subnormals;
//   - 1 − k·2⁻⁵³ for random k in [0, 2⁵³), every value 1 − Float64() can
//     take, as Exp, Geometric and GeometricCapped draw it;
//   - 1 − w/total for random 1 ≤ w < total < 2⁴⁰, the lockstep and batch
//     population engines' log(1 − p);
//   - √2/2·2ᵏ and its two neighbours for every k that keeps it above zero,
//     where the reduction's f1 ≤ √2/2 test decides.
func TestLogMatchesMathLog(t *testing.T) {
	scale := 10
	if testing.Short() {
		scale = 1
	}
	checked, failed := 0, 0
	check := func(x float64) {
		checked++
		got, want := log(x), math.Log(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			failed++
			if failed <= 10 {
				t.Errorf("log(%v) [%#016x] = %v [%#016x], math.Log = %v [%#016x]",
					x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	for _, bits := range []uint64{
		0, 1 << 63, // ±0
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, // NaNs
		1, 1<<52 - 1, 1 << 52, // smallest and largest subnormal, smallest normal
		0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000, // largest finite, 1
	} {
		check(math.Float64frombits(bits))
	}
	src := New(1)
	for range 400_000 * scale {
		check(math.Float64frombits(src.Uint64()))
	}
	for range 50_000 * scale {
		check(math.Float64frombits(src.Uint64() & (1<<52 - 1))) // subnormal or +0
	}

	for range 800_000 * scale {
		k := src.Uint64() >> 11
		if src.Uint64()&1 == 0 {
			k >>= src.Uint64N(53) // as many small k as large ones
		}
		check(1 - float64(k)/(1<<53))
	}

	for range 750_000 * scale {
		total := 2 + src.Uint64N(1<<(1+src.Uint64N(38)))
		w := 1 + src.Uint64N(total-1)
		check(1 - float64(w)/float64(total))
	}

	const hSqrt2 = 7.07106781186547524401e-01
	for k := -1075; k <= 1024; k++ {
		x := math.Ldexp(hSqrt2, k)
		if x == 0 || math.IsInf(x, 0) {
			continue
		}
		check(math.Nextafter(x, 0))
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
	}

	if failed > 0 {
		t.Errorf("%d of %d inputs differ from math.Log", failed, checked)
	}
	t.Logf("%d inputs bit for bit equal to math.Log", checked)
}
