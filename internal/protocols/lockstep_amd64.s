#include "go_asm.h"
#include "textflag.h"

// Four copies of a 64-bit pattern: one 256-bit operand.
#define BCAST(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST(magic, 0x4330000000000000)   // 2⁵²: ORing in an integer 0 ≤ x < 2⁵² gives 2⁵² + x
BCAST(two32, 0x41f0000000000000)   // 2³²
BCAST(twoM53, 0x3ca0000000000000)  // 2⁻⁵³
BCAST(low32, 0x00000000ffffffff)
BCAST(signBit, 0x8000000000000000) // 2⁶³, also the dirty flag
BCAST(one, 0x0000000000000001)
BCAST(three, 0x0000000000000003)
BCAST(four, 0x0000000000000004)

// Dword indices 0, 2, 4, 6: the low halves of four qwords.
DATA pack<>+0(SB)/8, $0x0000000200000000
DATA pack<>+8(SB)/8, $0x0000000600000004
DATA pack<>+16(SB)/8, $0
DATA pack<>+24(SB)/8, $0
GLOBL pack<>(SB), RODATA|NOPTR, $32

// func ticksAVX2(e *lockstepEngine, groups int) (refused bool)
//
// Each pass of the loop visits the group of lanes BX…BX+3 and gives each
// eligible lane one tick. R9 points at the group's counts in plane 0; state
// s's plane is s·planeBytes further on. R12 holds the group's eligible-lane
// bits. Y13–Y15 hold the broadcast ftotal, total and maxInteractions (the
// last XORed with 2⁶³ for unsigned compares); Y0–Y12 hold temporaries. No
// float operation is fused.
TEXT ·ticksAVX2(SB), NOSPLIT, $0-17
	MOVQ         e+0(FP), DI
	MOVQ         groups+8(FP), R11
	MOVQ         R11, DX
	SHLQ         $2, DX                                 // lane index past the last group
	LEAQ         lockstepEngine_l(DI), SI
	MOVQ         lockstepLanes_counts(SI), R8           // count plane 0
	VPBROADCASTQ lockstepEngine_maxInteractions(DI), Y15
	VPXOR        signBit<>(SB), Y15, Y15
	VPBROADCASTQ lockstepEngine_total(DI), Y14
	VBROADCASTSD lockstepEngine_ftotal(DI), Y13
	MOVQ         $const_kernelIters, CX
	XORQ         BX, BX                                 // the group's first lane
	XORQ         R10, R10                               // consecutive visits with no eligible lane

group:
	LEAQ (R8)(BX*4), R9

	// Eligible (Y1): the step word is below the budget as unsigned, so a
	// dirty one never is, and w < total ≤ 8w.
	VMOVDQU  lockstepLanes_step(SI)(BX*8), Y0
	VPXOR    signBit<>(SB), Y0, Y1
	VPCMPGTQ Y1, Y15, Y1                       // maxInteractions > step

	// The pair weights c[s]·c[t], all below 2³², and their prefix sums:
	// Y3 = w0, Y4 = w0+w1, Y5 = w0+w1+w2, Y6 = w.
	MOVQ      lockstepEngine_kpair+0(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y3
	MOVQ      lockstepEngine_kpair+8(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y7
	VPMULUDQ  Y7, Y3, Y3
	MOVQ      lockstepEngine_kpair+16(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y4
	MOVQ      lockstepEngine_kpair+24(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y7
	VPMULUDQ  Y7, Y4, Y4
	VPADDQ    Y3, Y4, Y4
	MOVQ      lockstepEngine_kpair+32(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y5
	MOVQ      lockstepEngine_kpair+40(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y7
	VPMULUDQ  Y7, Y5, Y5
	VPADDQ    Y4, Y5, Y5
	MOVQ      lockstepEngine_kpair+48(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y6
	MOVQ      lockstepEngine_kpair+56(DI), AX
	VPMOVZXDQ (R9)(AX*1), Y7
	VPMULUDQ  Y7, Y6, Y6
	VPADDQ    Y5, Y6, Y6

	VPCMPGTQ  Y6, Y14, Y7 // total > w
	VPAND     Y7, Y1, Y1
	VPSLLQ    $3, Y6, Y7
	VPCMPGTQ  Y7, Y14, Y7 // total > 8w
	VPANDN    Y1, Y7, Y1
	VMOVMSKPD Y1, R12
	TESTL     R12, R12
	JZ        idle
	XORQ      R10, R10

	// r₁ = rotl(s0 + s3, 23) + s0, the xoshiro256++ output.
	VMOVDQU lockstepLanes_s0(SI)(BX*8), Y7
	VPADDQ  lockstepLanes_s3(SI)(BX*8), Y7, Y8
	VPSLLQ  $23, Y8, Y9
	VPSRLQ  $41, Y8, Y8
	VPOR    Y9, Y8, Y8
	VPADDQ  Y7, Y8, Y8

	// Effective (Y2) iff (k·2⁻⁵³)·total < float64(w) for k = r₁ >> 11.
	// k < 2⁵³ converts exactly as hi·2³² + lo, and w < 2⁵² with one magic.
	VPSRLQ  $11, Y8, Y8
	VPSRLQ  $32, Y8, Y9
	VPAND   low32<>(SB), Y8, Y8
	VPOR    magic<>(SB), Y9, Y9
	VSUBPD  magic<>(SB), Y9, Y9
	VPOR    magic<>(SB), Y8, Y8
	VSUBPD  magic<>(SB), Y8, Y8
	VMULPD  two32<>(SB), Y9, Y9
	VADDPD  Y8, Y9, Y8
	VMULPD  twoM53<>(SB), Y8, Y8
	VMULPD  Y13, Y8, Y8
	VPOR    magic<>(SB), Y6, Y9
	VSUBPD  magic<>(SB), Y9, Y9
	VCMPPD  $1, Y9, Y8, Y8       // u < w
	VPAND   Y1, Y8, Y2

	// t = next(s) in Y7–Y10.
	VMOVDQU lockstepLanes_s1(SI)(BX*8), Y8
	VMOVDQU lockstepLanes_s2(SI)(BX*8), Y9
	VMOVDQU lockstepLanes_s3(SI)(BX*8), Y10
	VPSLLQ  $17, Y8, Y11
	VPXOR   Y7, Y9, Y9
	VPXOR   Y8, Y10, Y10
	VPXOR   Y9, Y8, Y8
	VPXOR   Y10, Y7, Y7
	VPXOR   Y11, Y9, Y9
	VPSLLQ  $45, Y10, Y11
	VPSRLQ  $19, Y10, Y10
	VPOR    Y11, Y10, Y10

	// r₂ = rotl(t0 + t3, 23) + t0.
	VPADDQ Y7, Y10, Y11
	VPSLLQ $23, Y11, Y12
	VPSRLQ $41, Y11, Y11
	VPOR   Y12, Y11, Y11
	VPADDQ Y7, Y11, Y11

	// Lemire: r₂·w = hi·2⁶⁴ + lo from two 32×32-bit products p0 and p1,
	// exact because w < 2³²: hi = (p1 + (p0 >> 32)) >> 32, which cannot
	// overflow, and lo = that sum << 32 | (p0 mod 2³²). Refuse the group,
	// committing nothing, if an effective lane has lo < w: Uint64N would
	// draw again.
	VPMULUDQ Y6, Y11, Y12        // p0 = (r₂ mod 2³²)·w
	VPSRLQ   $32, Y11, Y11
	VPMULUDQ Y6, Y11, Y11        // p1 = (r₂ >> 32)·w
	VPSRLQ   $32, Y12, Y0
	VPADDQ   Y0, Y11, Y11
	VPSRLQ   $32, Y11, Y0        // hi
	VPSLLQ   $32, Y11, Y11
	VPBLENDD $0x55, Y12, Y11, Y11 // lo
	VPXOR    signBit<>(SB), Y11, Y11
	VPXOR    signBit<>(SB), Y6, Y12
	VPCMPGTQ Y11, Y12, Y11       // w > lo, unsigned
	VPTEST   Y2, Y11
	JNZ      refused

	// The pair is the number of prefix sums at or below hi: 3 less the
	// number above it. A lane that does not fire gets index 4, whose
	// table entries are zero.
	VPCMPGTQ Y0, Y3, Y3
	VPCMPGTQ Y0, Y4, Y4
	VPCMPGTQ Y0, Y5, Y5
	VPADDQ   Y4, Y3, Y3
	VPADDQ   Y5, Y3, Y3
	VPADDQ   three<>(SB), Y3, Y3
	VPANDN   four<>(SB), Y2, Y4
	VPADDQ   Y4, Y3, Y3
	VMOVDQU  pack<>(SB), Y4
	VPERMD   Y3, Y4, Y3          // indices in dwords 0–3

	// Apply the pair's net count changes, plane by plane, and find the
	// smallest new count.
	VPERMD  lockstepEngine_kdelta+0(DI), Y3, Y4
	VPADDD  (R9), X4, X4
	VMOVDQU X4, (R9)
	VPERMD  lockstepEngine_kdelta+32(DI), Y3, Y5
	VPADDD  const_planeBytes(R9), X5, X5
	VMOVDQU X5, const_planeBytes(R9)
	VPMINUD X5, X4, X4
	VPERMD  lockstepEngine_kdelta+64(DI), Y3, Y5
	VPADDD  (2*const_planeBytes)(R9), X5, X5
	VMOVDQU X5, (2*const_planeBytes)(R9)
	VPMINUD X5, X4, X4
	VPERMD  lockstepEngine_kdelta+96(DI), Y3, Y5
	VPADDD  (3*const_planeBytes)(R9), X5, X5
	VMOVDQU X5, (3*const_planeBytes)(R9)
	VPMINUD X5, X4, X4

	// step + 1 on eligible lanes, and the dirty flag on a lane that fired
	// and now has a zero count: one it fired into, or one it was already
	// at, which only sends the lane through one more decide pass.
	VPXOR     X5, X5, X5
	VPCMPEQD  X5, X4, X4
	VPMOVSXDQ X4, Y4
	VPAND     Y2, Y4, Y4
	VPAND     signBit<>(SB), Y4, Y4
	VMOVDQU   lockstepLanes_step(SI)(BX*8), Y0
	VPSUBQ    Y1, Y0, Y0
	VPOR      Y4, Y0, Y0
	VMOVDQU   Y0, lockstepLanes_step(SI)(BX*8)

	// v = next(t) on effective lanes, t on null ones: t XOR (F AND d)
	// with d = t XOR next(t) = (t1^t3, t0^t2, t0^(t1<<17),
	// t3^rotl(t1^t3, 45)).
	VPXOR  Y8, Y10, Y3
	VPXOR  Y7, Y9, Y4
	VPSLLQ $17, Y8, Y5
	VPXOR  Y7, Y5, Y5
	VPSLLQ $45, Y3, Y6
	VPSRLQ $19, Y3, Y0
	VPOR   Y0, Y6, Y6
	VPXOR  Y10, Y6, Y6
	VPAND  Y2, Y3, Y3
	VPAND  Y2, Y4, Y4
	VPAND  Y2, Y5, Y5
	VPAND  Y2, Y6, Y6
	VPXOR  Y3, Y7, Y7
	VPXOR  Y4, Y8, Y8
	VPXOR  Y5, Y9, Y9
	VPXOR  Y6, Y10, Y10

	// A lane that is not eligible keeps s.
	CMPL      R12, $15
	JEQ       commit
	VPCMPEQQ  Y0, Y0, Y0
	VPXOR     Y0, Y1, Y1
	VBLENDVPD Y1, lockstepLanes_s0(SI)(BX*8), Y7, Y7
	VBLENDVPD Y1, lockstepLanes_s1(SI)(BX*8), Y8, Y8
	VBLENDVPD Y1, lockstepLanes_s2(SI)(BX*8), Y9, Y9
	VBLENDVPD Y1, lockstepLanes_s3(SI)(BX*8), Y10, Y10

commit:
	VMOVDQU Y7, lockstepLanes_s0(SI)(BX*8)
	VMOVDQU Y8, lockstepLanes_s1(SI)(BX*8)
	VMOVDQU Y9, lockstepLanes_s2(SI)(BX*8)
	VMOVDQU Y10, lockstepLanes_s3(SI)(BX*8)

next:
	ADDQ    $4, BX
	XORQ    AX, AX
	CMPQ    BX, DX
	CMOVQEQ AX, BX
	DECQ    CX
	JNZ     group
	MOVB    $0, refused+16(FP)
	VZEROUPPER
	RET

idle:
	// Lanes the kernel leaves never become eligible inside it, so a full
	// circuit of idle groups ends the call.
	INCQ R10
	CMPQ R10, R11
	JB   next
	MOVB $0, refused+16(FP)
	VZEROUPPER
	RET

refused:
	MOVB $1, refused+16(FP)
	VZEROUPPER
	RET

// func ticks512(e *lockstepEngine, groups int) (refused bool)
//
// Each pass of the loop visits the group of lanes BX…BX+7 and gives each
// eligible lane up to two ticks, as sweep4's tick loop draws its
// speculative pair: r₁ decides the first tick, and where that tick is null
// and step + 1 < maxInteractions, r₂ decides a second one. A tick that
// fires takes the next draw as its Lemire draw: r₂ after an effective
// first tick, r₃ after an effective second one. R9 points at the group's
// counts in plane 0. A ZMM holds the group's words of one state-word plane
// or of the step plane, and a YMM its row of one count plane. K1 holds the
// eligible lanes, K2 those whose first tick fires, K4 those that take a
// second tick, K3 those whose second tick fires, K5 those the budget stops
// after a null first tick, and K6 the lanes that fire. Z24–Z31 hold
// constants: maxInteractions − 1, the broadcast dirty flag, 4, 1, 2⁻⁵³,
// ftotal, total and maxInteractions; Z0–Z19 hold temporaries. AVX-512 F
// and DQ add rotations (VPROLQ), exact conversions from unsigned integers
// (VCVTUQQ2PD), unsigned compares into mask registers, qword-to-dword
// packing (VPMOVQD) and masked stores, so that an ineligible lane is never
// written. The count rows stay in VEX-encoded YMM instructions, which need
// no AVX-512 VL. No float operation is fused.
TEXT ·ticks512(SB), NOSPLIT, $0-17
	MOVQ         e+0(FP), DI
	MOVQ         groups+8(FP), R11
	MOVQ         R11, DX
	SHLQ         $3, DX                                 // lane index past the last group
	LEAQ         lockstepEngine_l(DI), SI
	MOVQ         lockstepLanes_counts(SI), R8           // count plane 0
	VPBROADCASTQ lockstepEngine_maxInteractions(DI), Z31
	VPBROADCASTQ lockstepEngine_total(DI), Z30
	VBROADCASTSD lockstepEngine_ftotal(DI), Z29
	VBROADCASTSD twoM53<>(SB), Z28
	VPBROADCASTQ one<>(SB), Z27
	VPBROADCASTQ four<>(SB), Z26
	VPBROADCASTQ signBit<>(SB), Z25
	VPSUBQ       Z27, Z31, Z24                          // maxInteractions − 1
	MOVQ         $const_kernelIters, CX
	XORQ         BX, BX                                 // the group's first lane
	XORQ         R10, R10                               // consecutive visits with no eligible lane

group512:
	LEAQ (R8)(BX*4), R9

	// Eligible (K1): the step word is below the budget as unsigned, so a
	// dirty one never is, and w < total ≤ 8w.
	VMOVDQU64 lockstepLanes_step(SI)(BX*8), Z0
	VPCMPUQ   $1, Z31, Z0, K1                  // step < maxInteractions

	// The pair weights c[s]·c[t], all below 2³², and their prefix sums:
	// Z1 = w0, Z2 = w0+w1, Z3 = w0+w1+w2, Z4 = w.
	MOVQ      lockstepEngine_kpair+0(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z1
	MOVQ      lockstepEngine_kpair+8(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z5
	VPMULUDQ  Z5, Z1, Z1
	MOVQ      lockstepEngine_kpair+16(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z2
	MOVQ      lockstepEngine_kpair+24(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z5
	VPMULUDQ  Z5, Z2, Z2
	VPADDQ    Z1, Z2, Z2
	MOVQ      lockstepEngine_kpair+32(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z3
	MOVQ      lockstepEngine_kpair+40(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z5
	VPMULUDQ  Z5, Z3, Z3
	VPADDQ    Z2, Z3, Z3
	MOVQ      lockstepEngine_kpair+48(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z4
	MOVQ      lockstepEngine_kpair+56(DI), AX
	VPMOVZXDQ (R9)(AX*1), Z5
	VPMULUDQ  Z5, Z4, Z4
	VPADDQ    Z3, Z4, Z4

	VPCMPUQ  $1, Z30, Z4, K1, K1 // w < total
	VPSLLQ   $3, Z4, Z5
	VPCMPUQ  $5, Z30, Z5, K1, K1 // 8w ≥ total
	KORTESTB K1, K1
	JEQ      idle512
	XORQ     R10, R10

	// r₁ = rotl(s0 + s3, 23) + s0. The first tick fires (K2) iff
	// (k·2⁻⁵³)·total < float64(w) for k = r₁ >> 11: k < 2⁵³ and w < 2³²
	// convert exactly.
	VMOVDQU64  lockstepLanes_s0(SI)(BX*8), Z6
	VMOVDQU64  lockstepLanes_s3(SI)(BX*8), Z9
	VPADDQ     Z9, Z6, Z10
	VPROLQ     $23, Z10, Z10
	VPADDQ     Z6, Z10, Z10
	VPSRLQ     $11, Z10, Z10
	VCVTUQQ2PD Z10, Z10
	VMULPD     Z28, Z10, Z10
	VMULPD     Z29, Z10, Z10
	VCVTUQQ2PD Z4, Z5                   // float64(w), for both ticks
	VCMPPD     $1, Z5, Z10, K1, K2      // u₁ < w on eligible lanes

	// t = next(s) in Z6–Z9.
	VMOVDQU64 lockstepLanes_s1(SI)(BX*8), Z7
	VMOVDQU64 lockstepLanes_s2(SI)(BX*8), Z8
	VPSLLQ    $17, Z7, Z10
	VPXORQ    Z6, Z8, Z8
	VPXORQ    Z7, Z9, Z9
	VPXORQ    Z8, Z7, Z7
	VPXORQ    Z9, Z6, Z6
	VPXORQ    Z10, Z8, Z8
	VPROLQ    $45, Z9, Z9

	// r₂ = rotl(t0 + t3, 23) + t0.
	VPADDQ Z6, Z9, Z10
	VPROLQ $23, Z10, Z10
	VPADDQ Z6, Z10, Z10

	// A lane whose first tick is null takes a second tick (K4) while
	// step + 1 < maxInteractions, and the budget stops the others (K5). r₂
	// decides the second tick as r₁ decided the first: it fires on K3.
	KXORB      K2, K1, K5               // null first ticks
	VPCMPUQ    $1, Z24, Z0, K5, K4      // step < maxInteractions − 1
	KXORB      K4, K5, K5
	VPSRLQ     $11, Z10, Z11
	VCVTUQQ2PD Z11, Z11
	VMULPD     Z28, Z11, Z11
	VMULPD     Z29, Z11, Z11
	VCMPPD     $1, Z5, Z11, K4, K3      // u₂ < w on second ticks

	// v = next(t) in Z12–Z15, and r₃ = rotl(v0 + v3, 23) + v0.
	VPSLLQ $17, Z7, Z11
	VPXORQ Z6, Z8, Z14
	VPXORQ Z7, Z9, Z15
	VPXORQ Z14, Z7, Z13
	VPXORQ Z15, Z6, Z12
	VPXORQ Z11, Z14, Z14
	VPROLQ $45, Z15, Z15
	VPADDQ Z12, Z15, Z11
	VPROLQ $23, Z11, Z11
	VPADDQ Z12, Z11, Z11

	// Lemire on the firing draw r, r₂ on K2 and r₃ on K3: r·w = hi·2⁶⁴ + lo
	// from the 32×32-bit products p0 = (r mod 2³²)·w and p1 = (r >> 32)·w,
	// exact because w < 2³²: lo = p0 + (p1 << 32) mod 2⁶⁴, and
	// hi = (p1 + (p0 >> 32)) >> 32, which cannot overflow. Refuse the
	// group, committing nothing, if a lane that fires has lo < w: Uint64N
	// would draw again.
	VMOVDQA64 Z11, K3, Z10
	KORB      K3, K2, K6
	VPMULUDQ  Z4, Z10, Z11        // p0
	VPSRLQ    $32, Z10, Z10
	VPMULUDQ  Z4, Z10, Z10        // p1
	VPSLLQ    $32, Z10, Z16
	VPADDQ    Z11, Z16, Z16       // lo
	VPCMPUQ   $1, Z4, Z16, K6, K7 // lo < w on lanes that fire
	KORTESTB  K7, K7
	JNE       refused512
	VPSRLQ    $32, Z11, Z11
	VPADDQ    Z11, Z10, Z10
	VPSRLQ    $32, Z10, Z10       // hi

	// The pair is the number of prefix sums at or below hi. A lane that
	// does not fire gets index 4, whose table entries are zero.
	VMOVDQA64 Z26, Z11
	VPXORQ    Z11, Z11, K6, Z11
	VPCMPUQ   $2, Z10, Z1, K6, K2 // w0 ≤ hi on lanes that fire
	VPCMPUQ   $2, Z10, Z2, K6, K7
	VPADDQ    Z27, Z11, K2, Z11
	VPADDQ    Z27, Z11, K7, Z11
	VPCMPUQ   $2, Z10, Z3, K6, K2
	VPADDQ    Z27, Z11, K2, Z11
	VPMOVQD   Z11, Y11            // indices in dwords 0–7

	// Apply the pair's net count changes, plane by plane, and find the
	// smallest new count.
	VPERMD  lockstepEngine_kdelta+0(DI), Y11, Y1
	VPADDD  (R9), Y1, Y1
	VMOVDQU Y1, (R9)
	VPERMD  lockstepEngine_kdelta+32(DI), Y11, Y2
	VPADDD  const_planeBytes(R9), Y2, Y2
	VMOVDQU Y2, const_planeBytes(R9)
	VPMINUD Y2, Y1, Y1
	VPERMD  lockstepEngine_kdelta+64(DI), Y11, Y2
	VPADDD  (2*const_planeBytes)(R9), Y2, Y2
	VMOVDQU Y2, (2*const_planeBytes)(R9)
	VPMINUD Y2, Y1, Y1
	VPERMD  lockstepEngine_kdelta+96(DI), Y11, Y2
	VPADDD  (3*const_planeBytes)(R9), Y2, Y2
	VMOVDQU Y2, (3*const_planeBytes)(R9)
	VPMINUD Y2, Y1, Y1

	// step + 1 on eligible lanes and + 1 more on second ticks, and the
	// dirty flag on a lane that fired and now has a zero count (see
	// ticksAVX2). The VEX-encoded VPMINUD cleared dwords 8–15 of Z1, which
	// K6 leaves out.
	VPTESTNMD Z1, Z1, K6, K7
	VPADDQ    Z27, Z0, K1, Z0
	VPADDQ    Z27, Z0, K4, Z0
	VPORQ     Z25, Z0, K7, Z0
	VMOVDQU64 Z0, K1, lockstepLanes_step(SI)(BX*8)

	// The state each lane commits: next(v) where the second tick fired,
	// t where the budget stopped the second tick, and v on every other
	// eligible lane. next(v) is v XOR d on K3, with
	// d = v XOR next(v) = (v1^v3, v0^v2, v0^(v1<<17), v3^rotl(v1^v3, 45)).
	// The masked stores leave an ineligible lane at s.
	VPXORQ    Z13, Z15, Z16
	VPXORQ    Z12, Z14, Z17
	VPSLLQ    $17, Z13, Z18
	VPXORQ    Z12, Z18, Z18
	VPROLQ    $45, Z16, Z19
	VPXORQ    Z15, Z19, Z19
	VPXORQ    Z16, Z12, K3, Z12
	VPXORQ    Z17, Z13, K3, Z13
	VPXORQ    Z18, Z14, K3, Z14
	VPXORQ    Z19, Z15, K3, Z15
	VMOVDQA64 Z6, K5, Z12
	VMOVDQA64 Z7, K5, Z13
	VMOVDQA64 Z8, K5, Z14
	VMOVDQA64 Z9, K5, Z15
	VMOVDQU64 Z12, K1, lockstepLanes_s0(SI)(BX*8)
	VMOVDQU64 Z13, K1, lockstepLanes_s1(SI)(BX*8)
	VMOVDQU64 Z14, K1, lockstepLanes_s2(SI)(BX*8)
	VMOVDQU64 Z15, K1, lockstepLanes_s3(SI)(BX*8)

next512:
	ADDQ    $8, BX
	XORQ    AX, AX
	CMPQ    BX, DX
	CMOVQEQ AX, BX
	DECQ    CX
	JNZ     group512
	MOVB    $0, refused+16(FP)
	VZEROUPPER
	RET

idle512:
	// As in ticksAVX2, a full circuit of idle groups ends the call.
	INCQ R10
	CMPQ R10, R11
	JB   next512
	MOVB $0, refused+16(FP)
	VZEROUPPER
	RET

refused512:
	MOVB $1, refused+16(FP)
	VZEROUPPER
	RET
