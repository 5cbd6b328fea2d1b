package rng

import (
	"math/bits"

	"lvmajority/internal/cpufeat"
)

// State-passing draw primitives for lockstep simulation kernels.
//
// A kernel that advances many replicates per instruction stream keeps one
// generator per lane in its own lane-indexed storage and needs the
// per-draw step to inline into its fused per-lane loop: a call per draw
// costs more than the draw and forces every generator chain through
// caller-saved register spills. (*Source).Uint64 sits above the compiler's
// inlining budget precisely because it indexes its state through a
// pointer, so these helpers pass the four xoshiro256++ state words as
// plain values instead — Next4 compiles to straight-line register
// arithmetic and inlines anywhere. The cold paths (stream seeding, the
// geometric sampler's logarithm, Lemire rejection) stay out of line and
// round-trip through a stack Source, which guarantees them bit-identical
// to the scalar methods; TestLaneStateMatchesScalar pins all of it.

// Next4 advances one xoshiro256++ state held as four words and returns
// the draw plus the successor state: exactly the value and state
// transition of (*Source).Uint64.
func Next4(s0, s1, s2, s3 uint64) (u, t0, t1, t2, t3 uint64) {
	u = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return u, s0, s1, s2, s3
}

// StreamState4 returns the initial state words of NewStream(seed, stream).
func StreamState4(seed, stream uint64) (s0, s1, s2, s3 uint64) {
	var src Source
	src.ReseedStream(seed, stream)
	return src.s[0], src.s[1], src.s[2], src.s[3]
}

// GeometricCapped4 is GeometricCapped in state-passing form: it returns
// the capped geometric draw plus the successor state.
func GeometricCapped4(s0, s1, s2, s3 uint64, p float64, max int) (n int, t0, t1, t2, t3 uint64) {
	src := Source{s: [4]uint64{s0, s1, s2, s3}}
	n = src.GeometricCapped(p, max)
	return n, src.s[0], src.s[1], src.s[2], src.s[3]
}

// Uint64NRetry4 finishes a bounded draw whose inlined Lemire fast path
// failed its quick accept: hi and lo are the first multiply's halves for
// bound n. Callers replicate the fast path of Uint64N as
//
//	u, s0, s1, s2, s3 = Next4(s0, s1, s2, s3)
//	hi, lo := bits.Mul64(u, n)
//	if lo < n {
//		hi, s0, s1, s2, s3 = Uint64NRetry4(s0, s1, s2, s3, hi, lo, n)
//	}
//
// which consumes the stream exactly as the scalar method does.
func Uint64NRetry4(s0, s1, s2, s3, hi, lo, n uint64) (v, t0, t1, t2, t3 uint64) {
	src := Source{s: [4]uint64{s0, s1, s2, s3}}
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(src.Uint64(), n)
	}
	return hi, src.s[0], src.s[1], src.s[2], src.s[3]
}

// GeometricBatch sets n[i] = int64(log(u[i]) / log(q[i])) for every
// i < len(u). That is the draw GeometricCapped makes from the uniform
// u = 1 − Float64() when q = 1 − p and its cap does not bind, so a
// lockstep kernel can consume each uniform where GeometricCapped would
// and resolve the logarithms later, many at once. Every u[i] must lie in
// (0, 1] and every q[i] in (0, 1); n and q must be at least as long as u.
//
// k must be a level the CPU runs (cpufeat.Levels). At AVX512 an assembly
// kernel (geometric512) takes the full groups of eight: it repeats log's
// operations in the same order, eight draws per instruction with nothing
// fused, so it gives the same bits. Every other level, and the draws past
// the last full group, run log in Go.
func GeometricBatch(n []int64, u, q []float64, k cpufeat.Level) {
	n, q = n[:len(u)], q[:len(u)]
	i := 0
	if k == cpufeat.AVX512 {
		i = len(u) &^ 7
		if i > 0 {
			geometric512(n[:i], u[:i], q[:i])
		}
	}
	geometricGo(n[i:], u[i:], q[i:])
}

// geometricGo is GeometricBatch in Go, for n, u and q of one length.
func geometricGo(n []int64, u, q []float64) {
	n, q = n[:len(u)], q[:len(u)]
	for i, x := range u {
		n[i] = int64(log(x) / log(q[i]))
	}
}
