//go:build !purego

#include "textflag.h"

// AVX2 bodies for the float64 multiply-add kernels. Rounding contract: each
// lane sees exactly the scalar sequence of one multiply rounding per weighted
// row and one add rounding per fold, in row order — VMULPD/VADDPD are
// lane-wise IEEE ops, so the vector forms are bit-identical to the scalar
// loops. Operand order is chosen so x86 NaN selection matches the compiled Go
// bodies: multiplies take the weight as the first source, adds take the
// accumulated value as the first source. No FMA anywhere — fusing would drop
// the intermediate rounding and change results.
//
// Each TEXT body runs an 8-wide main loop on two independent accumulator
// chains (hides VADDPD latency), then one 4-wide block, then a scalar tail.

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func f64MulAddAVX2(dst, row *float64, n int, w float64)
TEXT ·f64MulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ n+16(FP), R9
	VBROADCASTSD w+24(FP), Y12
	XORQ AX, AX
	MOVQ R9, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  ma1_4wide

ma1_loop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y6
	VMULPD  Y1, Y12, Y1
	VMULPD  Y6, Y12, Y6
	VADDPD  Y1, Y0, Y0
	VADDPD  Y6, Y5, Y5
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     ma1_loop8

ma1_4wide:
	MOVQ R9, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  ma1_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

ma1_tail:
	CMPQ AX, R9
	JGE  ma1_done

ma1_tail_loop:
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X12, X1
	VADDSD X1, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    ma1_tail_loop

ma1_done:
	VZEROUPPER
	RET

// func f64MulAdd2AVX2(dst, r1, r2 *float64, n int, w1, w2 float64)
TEXT ·f64MulAdd2AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r1+8(FP), SI
	MOVQ r2+16(FP), DX
	MOVQ n+24(FP), R9
	VBROADCASTSD w1+32(FP), Y12
	VBROADCASTSD w2+40(FP), Y13
	XORQ AX, AX
	MOVQ R9, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  ma2_4wide

ma2_loop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y6
	VMULPD  Y1, Y12, Y1
	VMULPD  Y6, Y12, Y6
	VADDPD  Y1, Y0, Y0
	VADDPD  Y6, Y5, Y5
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(DX)(AX*8), Y7
	VMULPD  Y2, Y13, Y2
	VMULPD  Y7, Y13, Y7
	VADDPD  Y2, Y0, Y0
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     ma2_loop8

ma2_4wide:
	MOVQ R9, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  ma2_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  Y2, Y13, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

ma2_tail:
	CMPQ AX, R9
	JGE  ma2_done

ma2_tail_loop:
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X12, X1
	VADDSD X1, X0, X0
	VMOVSD (DX)(AX*8), X2
	VMULSD X2, X13, X2
	VADDSD X2, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    ma2_tail_loop

ma2_done:
	VZEROUPPER
	RET

// func f64MulAdd4AVX2(dst, r1, r2, r3, r4 *float64, n int, w1, w2, w3, w4 float64)
TEXT ·f64MulAdd4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ r1+8(FP), SI
	MOVQ r2+16(FP), DX
	MOVQ r3+24(FP), CX
	MOVQ r4+32(FP), R8
	MOVQ n+40(FP), R9
	VBROADCASTSD w1+48(FP), Y12
	VBROADCASTSD w2+56(FP), Y13
	VBROADCASTSD w3+64(FP), Y14
	VBROADCASTSD w4+72(FP), Y15
	XORQ AX, AX
	MOVQ R9, BX
	ANDQ $-8, BX
	CMPQ AX, BX
	JGE  ma4_4wide

ma4_loop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y6
	VMULPD  Y1, Y12, Y1
	VMULPD  Y6, Y12, Y6
	VADDPD  Y1, Y0, Y0
	VADDPD  Y6, Y5, Y5
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(DX)(AX*8), Y7
	VMULPD  Y2, Y13, Y2
	VMULPD  Y7, Y13, Y7
	VADDPD  Y2, Y0, Y0
	VADDPD  Y7, Y5, Y5
	VMOVUPD (CX)(AX*8), Y3
	VMOVUPD 32(CX)(AX*8), Y8
	VMULPD  Y3, Y14, Y3
	VMULPD  Y8, Y14, Y8
	VADDPD  Y3, Y0, Y0
	VADDPD  Y8, Y5, Y5
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y9
	VMULPD  Y4, Y15, Y4
	VMULPD  Y9, Y15, Y9
	VADDPD  Y4, Y0, Y0
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     ma4_loop8

ma4_4wide:
	MOVQ R9, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  ma4_tail
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  Y2, Y13, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD (CX)(AX*8), Y3
	VMULPD  Y3, Y14, Y3
	VADDPD  Y3, Y0, Y0
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y4, Y15, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

ma4_tail:
	CMPQ AX, R9
	JGE  ma4_done

ma4_tail_loop:
	VMOVSD (DI)(AX*8), X0
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X12, X1
	VADDSD X1, X0, X0
	VMOVSD (DX)(AX*8), X2
	VMULSD X2, X13, X2
	VADDSD X2, X0, X0
	VMOVSD (CX)(AX*8), X3
	VMULSD X3, X14, X3
	VADDSD X3, X0, X0
	VMOVSD (R8)(AX*8), X4
	VMULSD X4, X15, X4
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, R9
	JLT    ma4_tail_loop

ma4_done:
	VZEROUPPER
	RET
