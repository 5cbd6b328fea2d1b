// Package rng provides a deterministic, splittable pseudo-random number
// generator and the samplers needed by the stochastic simulators in this
// repository.
//
// The core generator is xoshiro256++ (Blackman & Vigna), seeded through
// splitmix64. It is deliberately not cryptographic: the goal is fast,
// reproducible streams for Monte-Carlo simulation. Streams can be split into
// statistically independent child streams, which makes parallel Monte-Carlo
// estimation deterministic for a fixed root seed regardless of scheduling.
package rng

import "math/bits"

// Source is a xoshiro256++ pseudo-random number generator.
//
// The zero value is not a valid generator; construct one with New or Split.
// A Source is not safe for concurrent use; give each goroutine its own
// Source via Split.
type Source struct {
	s [4]uint64

	// spare holds a cached standard-normal variate produced by the polar
	// method (see Norm), which generates two at a time.
	spare    float64
	hasSpare bool
}

// splitmix64 advances the given state and returns the next splitmix64 output.
// It is the recommended seeding procedure for the xoshiro family and is also
// used to derive child stream seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
//
// Distinct seeds yield streams that are, for all simulation purposes,
// statistically independent.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed re-initializes src in place to the exact state of New(seed),
// discarding any cached normal variate. It lets long-lived consumers (e.g.
// Monte-Carlo workers) switch streams without allocating a new Source.
func (src *Source) Reseed(seed uint64) {
	state := seed
	for i := range src.s {
		src.s[i] = splitmix64(&state)
	}
	// The all-zero state is the single invalid state of xoshiro256++. The
	// splitmix64 expansion of any seed cannot produce it in practice, but
	// guard anyway so the invariant is local and obvious.
	if src.s == [4]uint64{} {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	src.spare = 0
	src.hasSpare = false
}

// Uint64 returns the next 64 uniformly distributed bits.
//
// The body is above the compiler's inlining budget, so every call pays
// call overhead; scalar simulation loops are additionally latency-bound on
// the serial state recurrence. The lane helpers in lanes.go spell this
// same step inline over banks of Sources for the kernels that need to
// overlap many independent chains.
func (src *Source) Uint64() uint64 {
	s := &src.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// NewStream returns the Source for substream stream of the root seed.
// Distinct (seed, stream) pairs yield streams that are, for all simulation
// purposes, statistically independent, and the construction is pure: it
// always returns the same generator for the same pair, no matter which
// goroutine calls it or in what order. Parallel Monte-Carlo replication
// keys each replicate's stream by its replicate index, which makes results
// independent of the worker count and of scheduling.
func NewStream(seed, stream uint64) *Source {
	var src Source
	src.ReseedStream(seed, stream)
	return &src
}

// ReseedStream re-initializes src in place to the exact state of
// NewStream(seed, stream), without allocating.
func (src *Source) ReseedStream(seed, stream uint64) {
	s1, s2 := seed, stream
	a := splitmix64(&s1)
	b := splitmix64(&s2)
	src.Reseed(a ^ bits.RotateLeft64(b, 31))
}

// Split derives a new Source whose stream is independent of the parent's
// future output. The parent advances by a constant number of states, so a
// fixed sequence of Split and sampling calls is fully deterministic.
func (src *Source) Split() *Source {
	// Derive the child seed material by running the parent's next outputs
	// through splitmix64 once more. This decorrelates the child from the
	// parent's state even though both came from the same root seed.
	var child Source
	for i := range child.s {
		state := src.Uint64()
		child.s[i] = splitmix64(&state)
	}
	if child.s == [4]uint64{} {
		child.s[0] = 0x9e3779b97f4a7c15
	}
	return &child
}

// Float64 returns a uniformly distributed value in [0, 1) with 53 random bits.
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0,
// mirroring math/rand.Intn; callers are expected to validate n.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(src.Uint64N(uint64(n)))
}

// Uint64N returns a uniformly distributed integer in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
func (src *Source) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64N called with zero n")
	}
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped to that range.
func (src *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return src.Float64() < p
}

// Shuffle pseudo-randomizes the order of n elements using the Fisher–Yates
// algorithm. swap swaps the elements with indexes i and j.
func (src *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		swap(i, j)
	}
}
