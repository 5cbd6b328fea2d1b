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
//
// R10 is the OR of the two γ words: zero exactly when both intraspecific
// rates are +0 (NewBlock clears the sign of −0.0), as in the paper's
// self-destructive and non-self-destructive chains. Then the loop skips
// the two intraspecific terms and the compares of c5 and c6, and total is
// c5. That is exact: a group fires only with every count in [1, 2⁵¹], so
// each term ((0·x)·(x−1))·0.5 is +0 and c6 = total = c5 bit for bit, +Inf
// included; and it commits only with u < total = c5 in every lane, where
// neither c5 ≤ u nor c6 ≤ u holds. A denormal γ, or one zero γ beside a
// nonzero one, takes the full arithmetic.
TEXT ·roundsAVX2(SB), NOSPLIT, $0-16
	MOVQ         b+0(FP), DI
	MOVQ         groups+8(FP), R8
	LEAQ         Block_lanes(DI), SI
	MOVQ         (Block_params+Params_Gamma)(DI), R10
	ORQ          (Block_params+Params_Gamma+8)(DI), R10 // zero: both γ are +0
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
	TESTQ  R10, R10
	JNZ    intra
	VADDPD Y13, Y12, Y15       // total = c5 = c4 + (α1·x0)·x1 (both γ +0)
	JMP    draw

intra:
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

draw:
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

	// The channel k is the count of c0…c6 at or below u: −1 per sum. With
	// both γ +0, c5 = c6 = total > u, so neither counts.
	VCMPPD  $2, Y7, Y6, Y6
	VCMPPD  $2, Y7, Y9, Y9
	VCMPPD  $2, Y7, Y10, Y10
	VCMPPD  $2, Y7, Y11, Y11
	VCMPPD  $2, Y7, Y12, Y12
	VPADDQ  Y9, Y6, Y6
	VPADDQ  Y11, Y10, Y10
	VPADDQ  Y10, Y6, Y6
	TESTQ   R10, R10
	JZ      counted
	VCMPPD  $2, Y7, Y13, Y13
	VCMPPD  $2, Y7, Y14, Y14
	VPADDQ  Y13, Y12, Y12
	VPADDQ  Y14, Y12, Y12

counted:
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

// The macros below are rounds512's, in its register map (see its header).
// LOAD512 and STORE512 move the planes of the group at byte offset OFF
// between the block (SI) and registers.
#define LOAD512(OFF, S0, S1, S2, S3, X0, X1, ST) \
	VMOVDQU64 (blockLanes_s0+OFF)(SI), S0; \
	VMOVDQU64 (blockLanes_s1+OFF)(SI), S1; \
	VMOVDQU64 (blockLanes_s2+OFF)(SI), S2; \
	VMOVDQU64 (blockLanes_s3+OFF)(SI), S3; \
	VMOVDQU64 (blockLanes_x0+OFF)(SI), X0; \
	VMOVDQU64 (blockLanes_x1+OFF)(SI), X1; \
	VMOVDQU64 (blockLanes_steps+OFF)(SI), ST

#define STORE512(OFF, S0, S1, S2, S3, X0, X1, ST) \
	VMOVDQU64 S0, (blockLanes_s0+OFF)(SI); \
	VMOVDQU64 S1, (blockLanes_s1+OFF)(SI); \
	VMOVDQU64 S2, (blockLanes_s2+OFF)(SI); \
	VMOVDQU64 S3, (blockLanes_s3+OFF)(SI); \
	VMOVDQU64 X0, (blockLanes_x0+OFF)(SI); \
	VMOVDQU64 X1, (blockLanes_x1+OFF)(SI); \
	VMOVDQU64 ST, (blockLanes_steps+OFF)(SI)

// RUNTERMS sets R to the three terms of the run length, lane by lane, and
// their minimum: ((min(x0, x1) − 1) >> (d − 1)) + 1, which is 0 for a zero
// count; maxSteps − steps; and 2⁵¹ + 1 − max(x0, x1). Z24, Z25 and Z26
// hold maxSteps, 2⁵¹ + 1 and d − 1; Z27 is scratch.
#define RUNTERMS(X0, X1, ST, R) \
	VPMINSQ X1, X0, R; \
	VPSUBQ  Z18, R, R; \
	VPSRAVQ Z26, R, R; \
	VPADDQ  Z18, R, R; \
	VPSUBQ  ST, Z24, Z27; \
	VPMINSQ Z27, R, R; \
	VPMAXSQ X1, X0, Z27; \
	VPSUBQ  Z27, Z25, Z27; \
	VPMINSQ Z27, R, R

// SUMS512 converts one group's counts to float64, x0 in Z22 and x1 in
// Z23, exactly, and sets Z24–Z28 to the prefix sums c0 = β·x0,
// c1 = c0 + β·x1, c2 = c1 + δ·x0, c3 = c2 + δ·x1 and
// c4 = c3 + (α0·x0)·x1.
#define SUMS512(X0, X1) \
	VCVTQQ2PD X0, Z22; \
	VCVTQQ2PD X1, Z23; \
	VMULPD    Z14, Z22, Z24; \
	VMULPD    Z14, Z23, Z25; \
	VADDPD    Z25, Z24, Z25; \
	VMULPD    Z15, Z22, Z26; \
	VADDPD    Z26, Z25, Z26; \
	VMULPD    Z15, Z23, Z27; \
	VADDPD    Z27, Z26, Z27; \
	VMULPD    Z16, Z22, Z28; \
	VMULPD    Z23, Z28, Z28; \
	VADDPD    Z28, Z27, Z28

// DRAW512 sets Z22 to u = (r·2⁻⁵³)·total for r = rotl(s0 + s3, 23) +
// s0 >> 11, the xoshiro256++ output, with the total in Z31 (r < 2⁵³
// converts exactly). It hands back, leaving the group as it was, unless
// u < total in every lane (see roundsAVX2), and then zeroes k (Z23).
#define DRAW512(S0, S3) \
	VPADDQ     S3, S0, Z22; \
	VPROLQ     $23, Z22, Z22; \
	VPADDQ     S0, Z22, Z22; \
	VPSRLQ     $11, Z22, Z22; \
	VCVTUQQ2PD Z22, Z22; \
	VMULPD     Z19, Z22, Z22; \
	VMULPD     Z31, Z22, Z22; \
	VCMPPD     $1, Z31, Z22, K1; \
	KORTESTB   K1, K1; \
	JCC        done512; \
	VPXORQ     Z23, Z23, Z23

// COUNT512 adds 1 to k (Z23) in the lanes whose prefix sum C is at or
// below u (Z22): k ends as the count of c0…c6 at or below u, the channel.
#define COUNT512(C, K) \
	VCMPPD $2, Z22, C, K; \
	VPADDQ Z18, Z23, K, Z23

// FIRE512 fires channel k (Z23) in one group, x += dx[k] and steps++, and
// steps its xoshiro256++ state.
#define FIRE512(S0, S1, S2, S3, X0, X1, ST) \
	VPERMQ Z20, Z23, Z24; \
	VPADDQ Z24, X0, X0; \
	VPERMQ Z21, Z23, Z25; \
	VPADDQ Z25, X1, X1; \
	VPADDQ Z18, ST, ST; \
	VPSLLQ $17, S1, Z24; \
	VPXORQ S0, S2, S2; \
	VPXORQ S1, S3, S3; \
	VPXORQ S2, S1, S1; \
	VPXORQ S3, S0, S0; \
	VPXORQ Z24, S2, S2; \
	VPROLQ $45, S3, S3

// PLAIN512 runs one round of one group with both γ +0: the total is
// c5 = c4 + (α1·x0)·x1, and neither c5 nor c6 is at or below u.
#define PLAIN512(S0, S1, S2, S3, X0, X1, ST) \
	SUMS512(X0, X1); \
	VMULPD Z17, Z22, Z31; \
	VMULPD Z23, Z31, Z31; \
	VADDPD Z31, Z28, Z31; \
	DRAW512(S0, S3); \
	COUNT512(Z24, K1); \
	COUNT512(Z25, K2); \
	COUNT512(Z26, K3); \
	COUNT512(Z27, K4); \
	COUNT512(Z28, K5); \
	FIRE512(S0, S1, S2, S3, X0, X1, ST)

// FULL512 runs one round of one group in the full arithmetic:
// c5 = c4 + (α1·x0)·x1, c6 = c5 + ((γ0·x0)·(x0−1))·0.5 and
// total = c6 + ((γ1·x1)·(x1−1))·0.5.
#define FULL512(S0, S1, S2, S3, X0, X1, ST) \
	SUMS512(X0, X1); \
	VMULPD      Z17, Z22, Z29; \
	VMULPD      Z23, Z29, Z29; \
	VADDPD      Z29, Z28, Z29; \
	VMULPD.BCST (Block_params+Params_Gamma)(DI), Z22, Z30; \
	VSUBPD.BCST one<>(SB), Z22, Z22; \
	VMULPD      Z22, Z30, Z30; \
	VMULPD.BCST half<>(SB), Z30, Z30; \
	VADDPD      Z30, Z29, Z30; \
	VMULPD.BCST (Block_params+Params_Gamma+8)(DI), Z23, Z31; \
	VSUBPD.BCST one<>(SB), Z23, Z23; \
	VMULPD      Z23, Z31, Z31; \
	VMULPD.BCST half<>(SB), Z31, Z31; \
	VADDPD      Z31, Z30, Z31; \
	DRAW512(S0, S3); \
	COUNT512(Z24, K1); \
	COUNT512(Z25, K2); \
	COUNT512(Z26, K3); \
	COUNT512(Z27, K4); \
	COUNT512(Z28, K5); \
	COUNT512(Z29, K6); \
	COUNT512(Z30, K7); \
	FIRE512(S0, S1, S2, S3, X0, X1, ST)

// func rounds512(b *Block, groups int)
//
// roundsAVX2 in groups of eight, with the lanes held in registers: groups
// is 1 or 2, and the call loads each group's seven planes once, runs
// every round on registers and stores the planes once when it returns.
//
//	Z0–Z6    group 0's s0, s1, s2, s3, x0, x1, steps
//	Z7–Z13   group 1's, when groups is 2
//	Z14–Z17  β, δ, α0, α1, broadcast
//	Z18–Z21  integer 1s, 2⁻⁵³, and dx0 and dx1 as eight qwords each
//	Z22–Z31  temporaries: the counts as float64, then u (Z22) and the
//	         channel k (Z23); the prefix sums c0–c6 (Z24–Z30) and the
//	         total (Z31)
//
// The full arithmetic reads γ0, γ1, 1.0 and 0.5 as broadcast memory
// operands: no register is left for them. AVX-512 adds exact conversions
// from integers (VCVTQQ2PD, VCVTUQQ2PD), rotations (VPROLQ), compares
// into mask registers and qword permutes; every float operation is still
// the Go round's own, in its order, and none is fused.
//
// The stop test runs once per run of rounds, not once per round. Before
// each run the kernel takes R, the minimum over the call's lanes of
//
//	⌊(min(x0, x1) − 1)/d⌋ + 1  (0 for a zero count),
//	maxSteps − steps,
//	2⁵¹ + 1 − max(x0, x1),
//
// caps it at the rounds the call has left and hands back if R ≤ 0. An
// event moves a count by at most +1, and by at least −d, where d is 2 for
// the self-destructive chain with a nonzero γ (an intraspecific event
// removes two) and 1 otherwise; it moves steps by exactly +1. So in each of
// the next R rounds every lane fires from counts in [1, 2⁵¹] and
// steps < maxSteps, the state the per-round test of roundsAVX2 lets fire.
// Each round keeps only the commit test: it hands back without
// committing a group unless every lane has u < total (see roundsAVX2).
//
// As in roundsAVX2, R10 is zero exactly when both γ are +0, and then the
// rounds skip the two intraspecific terms and the compares of c5 and c6,
// with total = c5: a firing group has every count in [1, 2⁵¹], so both
// terms are +0 and c6 = total = c5 bit for bit, and a committed group has
// u < c5 in every lane.
TEXT ·rounds512(SB), NOSPLIT, $0-16
	MOVQ         b+0(FP), DI
	MOVQ         groups+8(FP), R8
	LEAQ         Block_lanes(DI), SI
	MOVQ         (Block_params+Params_Gamma)(DI), R10
	ORQ          (Block_params+Params_Gamma+8)(DI), R10 // zero: both γ are +0
	XORQ         R11, R11                               // d − 1
	TESTQ        R10, R10
	JZ           drop512
	CMPQ         (Block_params+Params_Competition)(DI), $const_SelfDestructive
	JNE          drop512
	MOVQ         $1, R11
drop512:
	VBROADCASTSD (Block_params+Params_Beta)(DI), Z14
	VBROADCASTSD (Block_params+Params_Delta)(DI), Z15
	VBROADCASTSD (Block_params+Params_Alpha)(DI), Z16
	VBROADCASTSD (Block_params+Params_Alpha+8)(DI), Z17
	VPBROADCASTQ ones<>(SB), Z18
	VBROADCASTSD twoM53<>(SB), Z19
	VPMOVSXDQ    Block_dx0(DI), Z20
	VPMOVSXDQ    Block_dx1(DI), Z21
	LOAD512(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	CMPQ         R8, $2
	JLT          loaded512
	LOAD512(64, Z7, Z8, Z9, Z10, Z11, Z12, Z13)

loaded512:
	MOVQ $const_kernelRounds, R12 // rounds left

run512:
	// R: each lane's three terms, then their minimum over the lanes.
	VPBROADCASTQ Block_maxSteps(DI), Z24
	MOVQ         $0x0008000000000001, AX // 2⁵¹ + 1
	VPBROADCASTQ AX, Z25
	VPBROADCASTQ R11, Z26
	RUNTERMS(Z4, Z5, Z6, Z22)
	CMPQ         R8, $2
	JLT          fold512
	RUNTERMS(Z11, Z12, Z13, Z23)
	VPMINSQ      Z23, Z22, Z22

fold512:
	VSHUFI64X2 $0x4e, Z22, Z22, Z23 // swap the 256-bit halves
	VPMINSQ    Z23, Z22, Z22
	VSHUFI64X2 $0xb1, Z22, Z22, Z23 // swap the 128-bit lanes of each half
	VPMINSQ    Z23, Z22, Z22
	VPSHUFD    $0x4e, Z22, Z23      // swap the qwords of each 128-bit lane
	VPMINSQ    Z23, Z22, Z22
	VMOVQ      X22, CX
	CMPQ       CX, R12
	CMOVQGT    R12, CX              // R = min(R, rounds left)
	TESTQ      CX, CX
	JLE        done512
	SUBQ       CX, R12
	TESTQ      R10, R10
	JNZ        full512
	CMPQ       R8, $2
	JLT        plain1

plain2:
	PLAIN512(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	PLAIN512(Z7, Z8, Z9, Z10, Z11, Z12, Z13)
	DECQ CX
	JNZ  plain2
	JMP  run512

plain1:
	PLAIN512(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	DECQ CX
	JNZ  plain1
	JMP  run512

full512:
	CMPQ R8, $2
	JLT  full1

full2:
	FULL512(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	FULL512(Z7, Z8, Z9, Z10, Z11, Z12, Z13)
	DECQ CX
	JNZ  full2
	JMP  run512

full1:
	FULL512(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	DECQ CX
	JNZ  full1
	JMP  run512

done512:
	STORE512(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	CMPQ R8, $2
	JLT  stored512
	STORE512(64, Z7, Z8, Z9, Z10, Z11, Z12, Z13)

stored512:
	VZEROUPPER
	RET
