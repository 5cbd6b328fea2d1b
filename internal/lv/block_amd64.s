#include "go_asm.h"
#include "textflag.h"

// Four copies of a 64-bit pattern: one 256-bit operand.
#define BCAST(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST(magic, 0x4330000000000000)  // 2⁵²: ORing in an integer 0 ≤ x < 2⁵² gives 2⁵² + x
BCAST(one, 0x3ff0000000000000)    // 1.0
BCAST(half, 0x3fe0000000000000)   // 0.5: x·0.5 rounds exactly as x/2
BCAST(two32, 0x41f0000000000000)  // 2³²
BCAST(twoM53, 0x3ca0000000000000) // 2⁻⁵³
BCAST(ones, 0x0000000000000001)   // integer 1
BCAST(low32, 0x00000000ffffffff)
BCAST(hiBits, 0xfff8000000000000) // bits 51–63: x − 1 has none exactly for 1 ≤ x ≤ 2⁵¹

// Dword indices 0, 2, 4, 6: the low halves of four qwords.
DATA pack<>+0(SB)/8, $0x0000000200000000
DATA pack<>+8(SB)/8, $0x0000000600000004
DATA pack<>+16(SB)/8, $0
DATA pack<>+24(SB)/8, $0
GLOBL pack<>(SB), RODATA|NOPTR, $32

// func roundsAVX2(b *Block, groups int)
//
// Each pass of the loop fires one event in each lane of one group of four:
// BX is the group's byte offset in the planes, cycling through 0, 32, …,
// R8 − 32. Y0–Y5 hold the broadcast rates; Y6–Y15 hold temporaries. Every
// float operation is the Go round's own, in its order; none is fused.
TEXT ·roundsAVX2(SB), NOSPLIT, $0-16
	MOVQ         b+0(FP), DI
	MOVQ         groups+8(FP), R8
	LEAQ         Block_lanes(DI), SI
	VBROADCASTSD (Block_params+Params_Beta)(DI), Y0
	VBROADCASTSD (Block_params+Params_Delta)(DI), Y1
	VBROADCASTSD (Block_params+Params_Alpha)(DI), Y2
	VBROADCASTSD (Block_params+Params_Alpha+8)(DI), Y3
	VBROADCASTSD (Block_params+Params_Gamma)(DI), Y4
	VBROADCASTSD (Block_params+Params_Gamma+8)(DI), Y5
	IMUL3Q       $const_kernelRounds, R8, CX // group passes
	SHLQ         $5, R8                      // end of the last group
	XORQ         BX, BX
	XORQ         R9, R9
	TESTQ        CX, CX
	JZ           done

group:
	// Hand back if a lane has stopped, spent its budget, or holds a
	// count outside [1, 2⁵¹].
	VPBROADCASTQ Block_maxSteps(DI), Y6
	VPCMPGTQ     blockLanes_steps(SI)(BX*1), Y6, Y6 // maxSteps > steps
	VPANDN       hiBits<>(SB), Y6, Y6
	VMOVDQU      blockLanes_x0(SI)(BX*1), Y7
	VMOVDQU      blockLanes_x1(SI)(BX*1), Y8
	VPSUBQ       ones<>(SB), Y7, Y9
	VPSUBQ       ones<>(SB), Y8, Y10
	VPOR         Y9, Y10, Y9
	VPOR         Y6, Y9, Y9
	VPTEST       hiBits<>(SB), Y9
	JNZ          done

	// The counts as float64, exactly: (2⁵² + x) − 2⁵².
	VPOR   magic<>(SB), Y7, Y7
	VSUBPD magic<>(SB), Y7, Y7 // x0
	VPOR   magic<>(SB), Y8, Y8
	VSUBPD magic<>(SB), Y8, Y8 // x1

	// Prefix sums of the propensities.
	VMULPD Y0, Y7, Y6          // c0 = β·x0
	VMULPD Y0, Y8, Y9
	VADDPD Y9, Y6, Y9          // c1 = c0 + β·x1
	VMULPD Y1, Y7, Y10
	VADDPD Y10, Y9, Y10        // c2 = c1 + δ·x0
	VMULPD Y1, Y8, Y11
	VADDPD Y11, Y10, Y11       // c3 = c2 + δ·x1
	VMULPD Y2, Y7, Y12
	VMULPD Y8, Y12, Y12
	VADDPD Y12, Y11, Y12       // c4 = c3 + (α0·x0)·x1
	VMULPD Y3, Y7, Y13
	VMULPD Y8, Y13, Y13
	VADDPD Y13, Y12, Y13       // c5 = c4 + (α1·x0)·x1
	VMULPD Y4, Y7, Y14
	VSUBPD one<>(SB), Y7, Y7
	VMULPD Y7, Y14, Y14
	VMULPD half<>(SB), Y14, Y14
	VADDPD Y14, Y13, Y14       // c6 = c5 + ((γ0·x0)·(x0−1))·0.5
	VMULPD Y5, Y8, Y15
	VSUBPD one<>(SB), Y8, Y8
	VMULPD Y8, Y15, Y15
	VMULPD half<>(SB), Y15, Y15
	VADDPD Y15, Y14, Y15       // total = c6 + ((γ1·x1)·(x1−1))·0.5

	// u = (r·2⁻⁵³)·total for r = rotl(s0 + s3, 23) + s0 >> 11, the
	// xoshiro256++ output. r < 2⁵³ converts as hi·2³² + lo, all exact.
	VMOVDQU blockLanes_s0(SI)(BX*1), Y7
	VPADDQ  blockLanes_s3(SI)(BX*1), Y7, Y7
	VPSLLQ  $23, Y7, Y8
	VPSRLQ  $41, Y7, Y7
	VPOR    Y7, Y8, Y7
	VPADDQ  blockLanes_s0(SI)(BX*1), Y7, Y7
	VPSRLQ  $11, Y7, Y7
	VPSRLQ  $32, Y7, Y8
	VPAND   low32<>(SB), Y7, Y7
	VPOR    magic<>(SB), Y8, Y8
	VSUBPD  magic<>(SB), Y8, Y8
	VPOR    magic<>(SB), Y7, Y7
	VSUBPD  magic<>(SB), Y7, Y7
	VMULPD  two32<>(SB), Y8, Y8
	VADDPD  Y7, Y8, Y7
	VMULPD  twoM53<>(SB), Y7, Y7
	VMULPD  Y15, Y7, Y7        // u

	// Hand back, leaving the group as it was, unless u < total in every
	// lane. That fails for a zero total, for Run's fallback to the last
	// non-zero channel, and for a total that overflows to +Inf, where u
	// is +Inf or (at r = 0) NaN.
	VCMPPD    $1, Y15, Y7, Y8  // u < total
	VMOVMSKPD Y8, AX
	CMPL      AX, $15
	JNE       done

	// The channel k is the count of c0…c6 at or below u: −1 per sum.
	VCMPPD  $2, Y7, Y6, Y6
	VCMPPD  $2, Y7, Y9, Y9
	VCMPPD  $2, Y7, Y10, Y10
	VCMPPD  $2, Y7, Y11, Y11
	VCMPPD  $2, Y7, Y12, Y12
	VCMPPD  $2, Y7, Y13, Y13
	VCMPPD  $2, Y7, Y14, Y14
	VPADDQ  Y9, Y6, Y6
	VPADDQ  Y11, Y10, Y10
	VPADDQ  Y13, Y12, Y12
	VPADDQ  Y10, Y6, Y6
	VPADDQ  Y14, Y12, Y12
	VPADDQ  Y12, Y6, Y6
	VPXOR   Y8, Y8, Y8
	VPSUBQ  Y6, Y8, Y8         // k
	VMOVDQU pack<>(SB), Y9
	VPERMD  Y8, Y9, Y8         // k in dwords 0–3

	// Fire channel k: x += dx[k], steps++.
	VPERMD    Block_dx0(DI), Y8, Y9
	VPMOVSXDQ X9, Y9
	VPADDQ    blockLanes_x0(SI)(BX*1), Y9, Y9
	VMOVDQU   Y9, blockLanes_x0(SI)(BX*1)
	VPERMD    Block_dx1(DI), Y8, Y9
	VPMOVSXDQ X9, Y9
	VPADDQ    blockLanes_x1(SI)(BX*1), Y9, Y9
	VMOVDQU   Y9, blockLanes_x1(SI)(BX*1)
	VMOVDQU   blockLanes_steps(SI)(BX*1), Y9
	VPADDQ    ones<>(SB), Y9, Y9
	VMOVDQU   Y9, blockLanes_steps(SI)(BX*1)

	// Step xoshiro256++.
	VMOVDQU blockLanes_s0(SI)(BX*1), Y6
	VMOVDQU blockLanes_s1(SI)(BX*1), Y7
	VPXOR   blockLanes_s2(SI)(BX*1), Y6, Y8 // s2 ^= s0
	VPXOR   blockLanes_s3(SI)(BX*1), Y7, Y9 // s3 ^= s1
	VPSLLQ  $17, Y7, Y10                    // t = s1 << 17
	VPXOR   Y8, Y7, Y7                      // s1 ^= s2
	VPXOR   Y9, Y6, Y6                      // s0 ^= s3
	VPXOR   Y10, Y8, Y8                     // s2 ^= t
	VPSLLQ  $45, Y9, Y10
	VPSRLQ  $19, Y9, Y9
	VPOR    Y10, Y9, Y9                     // s3 = rotl(s3, 45)
	VMOVDQU Y6, blockLanes_s0(SI)(BX*1)
	VMOVDQU Y7, blockLanes_s1(SI)(BX*1)
	VMOVDQU Y8, blockLanes_s2(SI)(BX*1)
	VMOVDQU Y9, blockLanes_s3(SI)(BX*1)

	ADDQ    $32, BX
	CMPQ    BX, R8
	CMOVQEQ R9, BX
	DECQ    CX
	JNZ     group

done:
	VZEROUPPER
	RET

// func rounds512(b *Block, groups int)
//
// roundsAVX2 in groups of eight: BX cycles through 0, 64, …, R8 − 64.
// Z0–Z5 hold the broadcast rates and Z16–Z23 the other constants; Z6–Z15
// and Z24–Z28 hold temporaries. AVX-512 adds exact conversions from
// integers (VCVTQQ2PD, VCVTUQQ2PD), rotations (VPROLQ), compares into mask
// registers and qword permutes; every float operation is still the Go
// round's own, in its order, and none is fused.
TEXT ·rounds512(SB), NOSPLIT, $0-16
	MOVQ         b+0(FP), DI
	MOVQ         groups+8(FP), R8
	LEAQ         Block_lanes(DI), SI
	VBROADCASTSD (Block_params+Params_Beta)(DI), Z0
	VBROADCASTSD (Block_params+Params_Delta)(DI), Z1
	VBROADCASTSD (Block_params+Params_Alpha)(DI), Z2
	VBROADCASTSD (Block_params+Params_Alpha+8)(DI), Z3
	VBROADCASTSD (Block_params+Params_Gamma)(DI), Z4
	VBROADCASTSD (Block_params+Params_Gamma+8)(DI), Z5
	VPBROADCASTQ Block_maxSteps(DI), Z16
	VPBROADCASTQ ones<>(SB), Z17
	VPBROADCASTQ hiBits<>(SB), Z18
	VBROADCASTSD one<>(SB), Z19
	VBROADCASTSD half<>(SB), Z20
	VBROADCASTSD twoM53<>(SB), Z21
	VPMOVSXDQ    Block_dx0(DI), Z22 // dx0 as eight qwords
	VPMOVSXDQ    Block_dx1(DI), Z23 // dx1 as eight qwords
	IMUL3Q       $const_kernelRounds, R8, CX // group passes
	SHLQ         $6, R8                      // end of the last group
	XORQ         BX, BX
	XORQ         R9, R9
	TESTQ        CX, CX
	JZ           done512

group512:
	// Hand back if a lane has stopped, spent its budget, or holds a
	// count outside [1, 2⁵¹].
	VMOVDQU64 blockLanes_x0(SI)(BX*1), Z26
	VMOVDQU64 blockLanes_x1(SI)(BX*1), Z27
	VPCMPQ    $6, blockLanes_steps(SI)(BX*1), Z16, K1 // maxSteps > steps
	VPSUBQ    Z17, Z26, Z9
	VPSUBQ    Z17, Z27, Z10
	VPORQ     Z9, Z10, Z9
	VPTESTNMQ Z18, Z9, K1, K1                         // and no x − 1 has bits 51–63
	KORTESTB  K1, K1
	JCC       done512                                 // CF clear: not every lane

	// The counts as float64, exactly.
	VCVTQQ2PD Z26, Z7 // x0
	VCVTQQ2PD Z27, Z8 // x1

	// Prefix sums of the propensities.
	VMULPD Z0, Z7, Z6          // c0 = β·x0
	VMULPD Z0, Z8, Z9
	VADDPD Z9, Z6, Z9          // c1 = c0 + β·x1
	VMULPD Z1, Z7, Z10
	VADDPD Z10, Z9, Z10        // c2 = c1 + δ·x0
	VMULPD Z1, Z8, Z11
	VADDPD Z11, Z10, Z11       // c3 = c2 + δ·x1
	VMULPD Z2, Z7, Z12
	VMULPD Z8, Z12, Z12
	VADDPD Z12, Z11, Z12       // c4 = c3 + (α0·x0)·x1
	VMULPD Z3, Z7, Z13
	VMULPD Z8, Z13, Z13
	VADDPD Z13, Z12, Z13       // c5 = c4 + (α1·x0)·x1
	VMULPD Z4, Z7, Z14
	VSUBPD Z19, Z7, Z7
	VMULPD Z7, Z14, Z14
	VMULPD Z20, Z14, Z14
	VADDPD Z14, Z13, Z14       // c6 = c5 + ((γ0·x0)·(x0−1))·0.5
	VMULPD Z5, Z8, Z15
	VSUBPD Z19, Z8, Z8
	VMULPD Z8, Z15, Z15
	VMULPD Z20, Z15, Z15
	VADDPD Z15, Z14, Z15       // total = c6 + ((γ1·x1)·(x1−1))·0.5

	// u = (r·2⁻⁵³)·total for r = rotl(s0 + s3, 23) + s0 >> 11, the
	// xoshiro256++ output; r < 2⁵³ converts exactly.
	VMOVDQU64  blockLanes_s0(SI)(BX*1), Z24
	VMOVDQU64  blockLanes_s3(SI)(BX*1), Z25
	VPADDQ     Z25, Z24, Z7
	VPROLQ     $23, Z7, Z7
	VPADDQ     Z24, Z7, Z7
	VPSRLQ     $11, Z7, Z7
	VCVTUQQ2PD Z7, Z7
	VMULPD     Z21, Z7, Z7
	VMULPD     Z15, Z7, Z7 // u

	// Hand back, leaving the group as it was, unless u < total in every
	// lane (see roundsAVX2).
	VCMPPD   $1, Z15, Z7, K2 // u < total
	KORTESTB K2, K2
	JCC      done512

	// The channel k is the count of c0…c6 at or below u: +1 per sum.
	VPXORQ  Z28, Z28, Z28
	VCMPPD  $2, Z7, Z6, K1
	VPADDQ  Z17, Z28, K1, Z28
	VCMPPD  $2, Z7, Z9, K2
	VPADDQ  Z17, Z28, K2, Z28
	VCMPPD  $2, Z7, Z10, K3
	VPADDQ  Z17, Z28, K3, Z28
	VCMPPD  $2, Z7, Z11, K4
	VPADDQ  Z17, Z28, K4, Z28
	VCMPPD  $2, Z7, Z12, K5
	VPADDQ  Z17, Z28, K5, Z28
	VCMPPD  $2, Z7, Z13, K6
	VPADDQ  Z17, Z28, K6, Z28
	VCMPPD  $2, Z7, Z14, K7
	VPADDQ  Z17, Z28, K7, Z28 // k

	// Fire channel k: x += dx[k], steps++.
	VPERMQ    Z22, Z28, Z9
	VPADDQ    Z26, Z9, Z9
	VMOVDQU64 Z9, blockLanes_x0(SI)(BX*1)
	VPERMQ    Z23, Z28, Z10
	VPADDQ    Z27, Z10, Z10
	VMOVDQU64 Z10, blockLanes_x1(SI)(BX*1)
	VPADDQ    blockLanes_steps(SI)(BX*1), Z17, Z11
	VMOVDQU64 Z11, blockLanes_steps(SI)(BX*1)

	// Step xoshiro256++.
	VMOVDQU64 blockLanes_s1(SI)(BX*1), Z7
	VPXORQ    blockLanes_s2(SI)(BX*1), Z24, Z8 // s2 ^= s0
	VPXORQ    Z25, Z7, Z9                      // s3 ^= s1
	VPSLLQ    $17, Z7, Z10                     // t = s1 << 17
	VPXORQ    Z8, Z7, Z7                       // s1 ^= s2
	VPXORQ    Z9, Z24, Z6                      // s0 ^= s3
	VPXORQ    Z10, Z8, Z8                      // s2 ^= t
	VPROLQ    $45, Z9, Z9                      // s3 = rotl(s3, 45)
	VMOVDQU64 Z6, blockLanes_s0(SI)(BX*1)
	VMOVDQU64 Z7, blockLanes_s1(SI)(BX*1)
	VMOVDQU64 Z8, blockLanes_s2(SI)(BX*1)
	VMOVDQU64 Z9, blockLanes_s3(SI)(BX*1)

	ADDQ    $64, BX
	CMPQ    BX, R8
	CMOVQEQ R9, BX
	DECQ    CX
	JNZ     group512

done512:
	VZEROUPPER
	RET
