//go:build !amd64

package cpufeat

// hasAVX2 and hasAVX512 are false off amd64: every kernel runs its
// portable Go round.
const (
	hasAVX2   = false
	hasAVX512 = false
)
