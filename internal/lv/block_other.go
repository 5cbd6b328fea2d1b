//go:build !amd64

package lv

// hasAVX2 is false off amd64: the Go round is the whole engine.
const hasAVX2 = false

// roundsAVX2 is never called off amd64. Advancing no lane meets the
// kernel's contract, so the Go round would stay exact even if it were.
func roundsAVX2(*Block) {}
