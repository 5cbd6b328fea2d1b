// Package cpufeat reports the CPU features the hand-written SIMD kernels
// need. Features are detected once, at package init, so a query costs one
// load.
package cpufeat

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: the condition for running the AVX2 round kernels of lv.Block
// and the population lockstep engine.
func AVX2() bool { return hasAVX2 }
