// Package cpufeat reports the CPU features the hand-written SIMD kernels
// need: AVX2 for the round kernels of lv.Block and the population lockstep
// engine, and AVX-512 (F and DQ) for lv.Block's wider round kernel.
// Features are detected once, at package init, so a query costs one load.
package cpufeat

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: the condition for running the AVX2 round kernels of lv.Block
// and the population lockstep engine.
func AVX2() bool { return hasAVX2 }

// AVX512 reports whether the CPU has AVX-512 F and DQ, the OS saves the
// ZMM and opmask registers, and AVX2 holds too: the condition for running
// lv.Block's AVX-512 round kernel, which leaves blocks with fewer than
// eight live lanes to the AVX2 one.
func AVX512() bool { return hasAVX512 }
