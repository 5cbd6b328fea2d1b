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
