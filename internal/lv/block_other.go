//go:build !amd64

package lv

// rounds512 and roundsAVX2 are never called off amd64, where
// cpufeat.Widest reports Portable. Advancing no lane meets the kernels'
// contract, so the Go round would stay exact even if they were.
func rounds512(*Block, int)  {}
func roundsAVX2(*Block, int) {}
