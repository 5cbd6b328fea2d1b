package rng

import "math"

// log returns the natural logarithm of x exactly as math.Log does on
// amd64, where it is the assembly routine archLog of the standard
// library's math/log_amd64.s, on every architecture. It is that routine
// operation for operation, so every draw of this package that takes a log
// gives the same bits everywhere: math.Log itself is that assembly on
// amd64 but compiled Go on arm64, where the compiler may fuse a product
// and a sum into one rounding. Every product here is converted to float64
// on its own, which forbids the fusion.
//
// Two details follow the assembly and not the Go math.log:
//   - The reduction doubles f1 and decrements k when f1 ≤ √2/2, not when
//     f1 < √2/2; the two give different logs at one input of the form
//     √2/2·2ᵏ.
//   - The exponent and mantissa are read from the bits as they stand, so
//     a subnormal x is not normalized first.
func log(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // √2/2
		ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1     = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3     = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) == 0: // ±0
		return math.Inf(-1)
	case int64(bits) < 0: // negative, −Inf and NaNs with the sign set
		return math.NaN()
	case bits >= 0x7FF0000000000000: // +Inf and the other NaNs
		return x
	}

	// f1 in [0.5, 1) with x = f1·2ᵏ, read from the bits, then k − 1 and
	// f1·2 when f1 ≤ √2/2. As in the assembly, the compare selects a
	// value rather than a branch: which way it goes depends on the draw.
	f1 := math.Float64frombits(bits&(1<<52-1) | 0x3FE0000000000000)
	var lt int
	if f1 <= hSqrt2 {
		lt = 1
	}
	k := float64(int(bits>>52&0x7FF) - 0x3FE - lt)
	f1 = float64(f1 * float64(1+lt))
	f := f1 - 1

	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
