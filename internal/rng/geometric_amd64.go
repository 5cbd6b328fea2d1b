package rng

// geometric512 is GeometricBatch's AVX-512 kernel: it sets n[i] to
// int64(log(u[i]) / log(q[i])) for the 8·⌊len(u)/8⌋ first draws, eight at
// a time, bit for bit as geometricGo does. n and q must be as long as u.
// Call it only when cpufeat.Widest reports AVX512.
//
//go:noescape
func geometric512(n []int64, u, q []float64)
