//go:build !amd64

package rng

// geometric512 is never reached off amd64, where cpufeat.Widest reports
// Portable; were it called, the Go loop would give the same bits.
func geometric512(n []int64, u, q []float64) { geometricGo(n, u, q) }
