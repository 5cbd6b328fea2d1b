//go:build !amd64

package cpufeat

// hasAVX2 is false off amd64: every kernel runs its portable Go round.
const hasAVX2 = false
