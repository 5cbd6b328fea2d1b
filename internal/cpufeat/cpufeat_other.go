//go:build !amd64

package cpufeat

// widest is Portable off amd64: every kernel runs its Go round.
const widest = Portable
