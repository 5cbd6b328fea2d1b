//go:build !amd64

package lv

// roundsAVX2 is never called off amd64, where cpufeat.AVX2 reports false.
// Advancing no lane meets the kernel's contract, so the Go round would
// stay exact even if it were.
func roundsAVX2(*Block) {}
