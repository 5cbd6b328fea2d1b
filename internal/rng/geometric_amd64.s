#include "textflag.h"

// One 64-bit constant, broadcast into a ZMM register at entry.
#define CONST(name, value) \
	DATA name<>+0(SB)/8, value; \
	GLOBL name<>(SB), RODATA|NOPTR, $8

CONST(mant, $0x000FFFFFFFFFFFFF)
CONST(half, $0x3FE0000000000000) // 0.5: also the exponent of f1 in [0.5, 1)
CONST(bias, $0x3FE)
CONST(hSqrt2, $7.07106781186547524401e-01)
CONST(one, $1.0)
CONST(two, $2.0)
CONST(ln2Hi, $6.93147180369123816490e-01)
CONST(ln2Lo, $1.90821492927058770002e-10)
CONST(l1, $6.666666666666735130e-01)
CONST(l2, $3.999999999940941908e-01)
CONST(l3, $2.857142874366239149e-01)
CONST(l4, $2.222219843214978396e-01)
CONST(l5, $1.818357216161805012e-01)
CONST(l6, $1.531383769920937332e-01)
CONST(l7, $1.479819860511658591e-01)

// LOG8 replaces the eight positive finite doubles in X with their natural
// logarithms, repeating log's operations (and so amd64's archLog) in
// order: the reduction x = f1·2ᵏ read from the bits, k − 1 and f1·2 where
// f1 ≤ √2/2 (a masked subtract and a masked multiply by 2, exact like the
// assembly's subtract of 0 or 1 and multiply by 1 or 2), then the same
// products and sums, each rounded on its own. F, K, S, T1, T2 and P are
// temporaries and M a mask register; Z17–Z31 hold the constants.
#define LOG8(X, F, K, S, T1, T2, P, M) \
	VPANDQ    Z31, X, F; \       // mantissa
	VPORQ     Z30, F, F; \       // f1 in [0.5, 1)
	VPSRLQ    $52, X, K; \
	VPSUBQ    Z29, K, K; \
	VCVTQQ2PD K, K; \            // k, exact
	VCMPPD    $2, Z28, F, M; \   // f1 ≤ √2/2
	VSUBPD    Z27, K, M, K; \    // k − 1
	VMULPD    Z26, F, M, F; \    // f1·2
	VSUBPD    Z27, F, F; \       // f = f1 − 1
	VADDPD    Z26, F, S; \       // 2 + f
	VDIVPD    S, F, S; \         // s = f / (2 + f)
	VMULPD    S, S, T1; \        // s2 = s·s
	VMULPD    T1, T1, T2; \      // s4 = s2·s2
	VMULPD    Z19, T2, P; \      // t1 = s2·(l1 + s4·(l3 + s4·(l5 + s4·l7)))
	VADDPD    Z21, P, P; \
	VMULPD    T2, P, P; \
	VADDPD    Z23, P, P; \
	VMULPD    T2, P, P; \
	VADDPD    Z25, P, P; \
	VMULPD    P, T1, T1; \
	VMULPD    Z20, T2, P; \      // t2 = s4·(l2 + s4·(l4 + s4·l6))
	VADDPD    Z22, P, P; \
	VMULPD    T2, P, P; \
	VADDPD    Z24, P, P; \
	VMULPD    P, T2, T2; \
	VADDPD    T2, T1, T1; \      // r = t1 + t2
	VMULPD    Z30, F, X; \       // hfsq = 0.5·f·f
	VMULPD    F, X, X; \
	VADDPD    X, T1, T1; \       // k·ln2Hi − ((hfsq − (s·(hfsq + r) + k·ln2Lo)) − f)
	VMULPD    T1, S, S; \
	VMULPD    Z17, K, T1; \
	VADDPD    T1, S, S; \
	VSUBPD    S, X, X; \
	VSUBPD    F, X, X; \
	VMULPD    Z18, K, K; \
	VSUBPD    X, K, X

// func geometric512(n []int64, u, q []float64)
//
// Each pass of the loop takes eight draws: log(u) in Z0 and log(q) in Z8,
// their quotient, and its conversion to an integer by truncation, as Go's
// int64(g) converts. No float operation is fused.
TEXT ·geometric512(SB), NOSPLIT, $0-72
	MOVQ n_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ u_len+32(FP), CX
	MOVQ q_base+48(FP), DX
	SHRQ $3, CX
	JZ   done

	VPBROADCASTQ mant<>(SB), Z31
	VPBROADCASTQ half<>(SB), Z30
	VPBROADCASTQ bias<>(SB), Z29
	VBROADCASTSD hSqrt2<>(SB), Z28
	VBROADCASTSD one<>(SB), Z27
	VBROADCASTSD two<>(SB), Z26
	VBROADCASTSD l1<>(SB), Z25
	VBROADCASTSD l2<>(SB), Z24
	VBROADCASTSD l3<>(SB), Z23
	VBROADCASTSD l4<>(SB), Z22
	VBROADCASTSD l5<>(SB), Z21
	VBROADCASTSD l6<>(SB), Z20
	VBROADCASTSD l7<>(SB), Z19
	VBROADCASTSD ln2Hi<>(SB), Z18
	VBROADCASTSD ln2Lo<>(SB), Z17
	XORQ         AX, AX                 // byte offset of the group

loop:
	VMOVUPD    (SI)(AX*1), Z0
	VMOVUPD    (DX)(AX*1), Z8
	LOG8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, K1)
	LOG8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, K2)
	VDIVPD     Z8, Z0, Z0               // log(u) / log(q)
	VCVTTPD2QQ Z0, Z0
	VMOVDQU64  Z0, (DI)(AX*1)
	ADDQ       $64, AX
	DECQ       CX
	JNZ        loop
	VZEROUPPER

done:
	RET
