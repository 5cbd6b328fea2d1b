package rng

import (
	"math"
	"testing"

	"lvmajority/internal/cpufeat"
	"lvmajority/internal/testutil"
)

// geometricInputs fills u and q with draws from GeometricBatch's domain as
// the lockstep engine meets it: u = 1 − k·2⁻⁵³ for random k in [0, 2⁵³)
// (every value 1 − Float64() can take, as many small k as large ones) and
// q = 1 − w/total for random 1 ≤ 8w < total < 2⁴⁰, the engine's
// null-dominated states.
func geometricInputs(src *Source, u, q []float64) {
	for i := range u {
		k := src.Uint64() >> 11
		if src.Uint64()&1 == 0 {
			k >>= src.Uint64N(53)
		}
		u[i] = 1 - float64(k)/(1<<53)
		total := 9 + src.Uint64N(1<<(1+src.Uint64N(39)))
		w := 1 + src.Uint64N((total-1)/8)
		q[i] = 1 - float64(w)/float64(total)
	}
}

// TestGeometricBatchMatchesLog checks GeometricBatch bit for bit against
// int64(log(u)/log(q)) on about 10 M draws (1 M with -short), at AVX512,
// where geometric512 runs, when the CPU has it, and at Portable. Every
// level below AVX512 runs that very expression in Go, so Portable checks
// only GeometricBatch's slicing. The draws are geometricInputs', with
// u = 1 among them, and u = √2/2·2ᵏ and its two neighbours for every k
// that keeps it in (0, 1], where log's reduction decides f1 ≤ √2/2. The
// quotient's truncation
// would hide most one-ulp errors in either log, so a quarter of the draws,
// and every √2/2·2ᵏ one, take q = 1 − j·2⁻⁵³ for 1 ≤ j ≤ 2¹⁰ instead:
// there the quotient exceeds 2⁴³·|log u| and keeps nearly every bit of
// both logs. Each block of draws goes in one call, then in calls of every
// length from 0 to 17, so that the Go tail after the last full group of
// eight runs at every length.
func TestGeometricBatchMatchesLog(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	const block = 1 << 16
	src := New(5)
	u, q := make([]float64, block), make([]float64, block)
	want, got := make([]int64, block), make([]int64, block)
	failed := 0
	check := func(level cpufeat.Level, how string, m int) {
		for i := range m {
			if got[i] != want[i] {
				failed++
				if failed <= 10 {
					t.Errorf("%v, %s: u = %v [%#016x], q = %v [%#016x]: got %d, want %d",
						level, how, u[i], math.Float64bits(u[i]), q[i], math.Float64bits(q[i]), got[i], want[i])
				}
			}
		}
	}
	nearOne := func() float64 { return 1 - float64(1+src.Uint64N(1<<10))/(1<<53) }
	levels := []cpufeat.Level{cpufeat.Portable}
	if cpufeat.Widest() == cpufeat.AVX512 {
		levels = append(levels, cpufeat.AVX512)
	}
	for done := 0; done < draws; done += block {
		geometricInputs(src, u, q)
		for i := range q {
			if src.Uint64()&3 == 0 {
				q[i] = nearOne()
			}
		}
		m := block
		if done == 0 {
			// The first block leads with u = 1 and the √2/2·2ᵏ neighbours.
			u[0] = 1
			const hSqrt2 = 7.07106781186547524401e-01
			m = 1
			for k := 0; k >= -1075; k-- {
				x := math.Ldexp(hSqrt2, k)
				for _, v := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, 1)} {
					if v > 0 && v <= 1 {
						u[m], q[m] = v, nearOne()
						m++
					}
				}
			}
			m = block - 3 // not a multiple of eight: the tail runs too
		}
		for i := range m {
			want[i] = int64(log(u[i]) / log(q[i]))
		}
		for _, level := range levels {
			clear(got)
			GeometricBatch(got[:m], u[:m], q[:m], level)
			check(level, "one call", m)
			clear(got)
			for i, length := 0, 0; i < m; length = (length + 1) % 18 {
				end := min(i+length, m)
				GeometricBatch(got[i:end], u[i:end], q[i:end], level)
				i = end
			}
			check(level, "calls of 0 to 17 draws", m)
		}
	}
	if failed > 0 {
		t.Errorf("%d results differ from int64(log(u)/log(q))", failed)
	}
	t.Logf("%d draws bit for bit equal at levels %v", draws, levels)
}

// flushDraws is the length of the lockstep engine's buffer of deferred
// null runs, which GeometricBatch resolves in one call.
const flushDraws = 256

// maxGeometricKernelRatio bounds geometric512's cost per draw as a
// multiple of the Go loop's on one buffer of flushDraws draws, about twice
// the ratio recorded on a 2-core Sapphire Rapids VM (0.2, about 4 ns
// against 20). A GeometricBatch that silently ran the Go loop at AVX512
// would read about 1.
const maxGeometricKernelRatio = 0.5

// TestGeometricKernelCheaperThanGoLoop gates geometric512 against the Go
// loop on one buffer of flushDraws draws. Each one's ns/draw is the
// minimum of three testutil.NsPer windows, alternating between the two so
// that a slow spell of the machine weighs on both. It logs both costs and
// their ratio.
func TestGeometricKernelCheaperThanGoLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("times both loops for a second or two; skipped with -short")
	}
	if cpufeat.Widest() != cpufeat.AVX512 {
		t.Skip("geometric512 needs AVX-512 F and DQ")
	}
	u, q, n := make([]float64, flushDraws), make([]float64, flushDraws), make([]int64, flushDraws)
	geometricInputs(New(9), u, q)
	nsPerDraw := func(k cpufeat.Level) float64 {
		return testutil.NsPer(func() int64 {
			GeometricBatch(n, u, q, k)
			return flushDraws
		})
	}
	kernel, goLoop := math.Inf(1), math.Inf(1)
	for range 3 {
		kernel = min(kernel, nsPerDraw(cpufeat.AVX512))
		goLoop = min(goLoop, nsPerDraw(cpufeat.Portable))
	}
	ratio := kernel / goLoop
	t.Logf("geometric512 %.2f ns/draw, Go loop %.2f ns/draw: %.2fx the Go loop, bound %.2fx",
		kernel, goLoop, ratio, maxGeometricKernelRatio)
	if ratio > maxGeometricKernelRatio {
		t.Errorf("geometric512 costs %.2fx the Go loop per draw, bound %.2fx", ratio, maxGeometricKernelRatio)
	}
}
