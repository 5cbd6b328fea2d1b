// Package cpufeat reports which hand-written SIMD kernels the CPU runs, as
// a Level: none (Portable), AVX2, or AVX-512 F and DQ. lv.Block runs
// rounds512 and roundsAVX2 at those levels, and the population lockstep
// engine ticks512 and ticksAVX2. Features are detected once, at package
// init, so a query costs one load.
package cpufeat

// Level is a width of SIMD kernel. Levels are ordered: a CPU that runs a
// level runs every level below it.
type Level uint8

const (
	// Portable runs no assembly kernel: the Go code is the whole engine.
	Portable Level = iota
	// AVX2 needs AVX2, with the OS saving the YMM registers.
	AVX2
	// AVX512 needs AVX-512 F and DQ, with the OS saving the ZMM and opmask
	// registers, and AVX2 as well: each AVX-512 kernel leaves to the AVX2
	// one the lanes short of a full group of eight.
	AVX512
)

// String names the level: "portable", "avx2" or "avx512".
func (l Level) String() string {
	switch l {
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	}
	return "portable"
}

// Widest returns the widest level this CPU runs.
func Widest() Level { return widest }

// Levels returns every level this CPU runs, the widest first and Portable
// last.
func Levels() []Level {
	ls := make([]Level, 0, widest+1)
	for l := widest; l > Portable; l-- {
		ls = append(ls, l)
	}
	return append(ls, Portable)
}
