//go:build amd64

#include "textflag.h"

// AVX float64 kernels of the training path; kernels64.go has the Go
// versions and the contract. Every lane rounds a product and then a sum,
// in the Go loop's order (VMULPD, VADDPD — no FMA), so each element gets
// the bits the Go loop gives it. Only AVX instructions are used.

// func dot4AVX(acc, w *float64, stride int, x *float64, n int)
//
// acc[r] += Σ_{i<n} w[r*stride+i] * x[i] for r in [0, 4), lane r holding
// row r's accumulator and adding the terms in index order; n > 0.
TEXT ·dot4AVX(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ x+24(FP), DX
	MOVQ n+32(FP), CX
	SHLQ $3, R8             // stride in bytes
	LEAQ (SI)(R8*1), R9     // row 1
	LEAQ (SI)(R8*2), R10    // row 2
	LEAQ (R9)(R8*2), R11    // row 3
	VMOVUPD (DI), Y0
	XORQ    AX, AX

dot4loop:
	VMOVSD       (SI)(AX*8), X1
	VMOVHPD      (R9)(AX*8), X1, X1
	VMOVSD       (R10)(AX*8), X2
	VMOVHPD      (R11)(AX*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1    // w[0..3][i]
	VBROADCASTSD (DX)(AX*8), Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       Y1, Y0, Y0
	INCQ         AX
	CMPQ         AX, CX
	JLT          dot4loop

	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func dot4IdxAVX(acc, w *float64, stride int, x *float64, nz *int32, n int)
//
// dot4AVX over the indices nz[0:n] of x only; n > 0.
TEXT ·dot4IdxAVX(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ stride+16(FP), R8
	MOVQ x+24(FP), DX
	MOVQ nz+32(FP), BX
	MOVQ n+40(FP), CX
	SHLQ $3, R8
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VMOVUPD (DI), Y0
	XORQ    AX, AX

dot4idxloop:
	MOVLQSX      (BX)(AX*4), R12   // i = nz[j]
	VMOVSD       (SI)(R12*8), X1
	VMOVHPD      (R9)(R12*8), X1, X1
	VMOVSD       (R10)(R12*8), X2
	VMOVHPD      (R11)(R12*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VBROADCASTSD (DX)(R12*8), Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       Y1, Y0, Y0
	INCQ         AX
	CMPQ         AX, CX
	JLT          dot4idxloop

	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func axpyAVX(a float64, x, y *float64, n int)
//
// y[i] += a * x[i] for i in [0, n): four at a time, then one at a time.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         CX, BX
	ANDQ         $~3, BX          // end of the whole vectors
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          axpytail

axpyloop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     axpyloop

axpytail:
	CMPQ AX, CX
	JGE  axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func addClearAVX(dst, src *float64, n int)
//
// dst[i] += src[i]; src[i] = 0 for i in [0, n); n > 0 and a multiple
// of 4.
TEXT ·addClearAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y2, Y2, Y2
	XORQ   AX, AX

addclearloop:
	VMOVUPD (SI)(AX*8), Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     addclearloop

	VZEROUPPER
	RET

// func adamAVX(w, g, m, v *float64, n int, c *adamCoef)
//
// One Adam update of w[0:n] (adamGo's loop); n > 0 and a multiple of 4.
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), DX
	VBROADCASTSD 0(DX), Y8    // b1
	VBROADCASTSD 8(DX), Y9    // c1 = 1-b1
	VBROADCASTSD 16(DX), Y10  // b2
	VBROADCASTSD 24(DX), Y11  // c2 = 1-b2
	VBROADCASTSD 32(DX), Y12  // bc1
	VBROADCASTSD 40(DX), Y13  // bc2
	VBROADCASTSD 48(DX), Y14  // lr
	VBROADCASTSD 56(DX), Y15  // eps
	XORQ         AX, AX

adamloop:
	VMOVUPD (SI)(AX*8), Y0       // grad
	VMULPD  (R8)(AX*8), Y8, Y1   // b1*m
	VMULPD  Y0, Y9, Y2           // c1*g
	VADDPD  Y2, Y1, Y1           // m = b1*m + c1*g
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y10, Y3  // b2*v
	VMULPD  Y0, Y11, Y4          // c2*g
	VMULPD  Y0, Y4, Y4           // c2*g*g
	VADDPD  Y4, Y3, Y3           // v = b2*v + c2*g*g
	VMOVUPD Y3, (R9)(AX*8)
	VDIVPD  Y12, Y1, Y1          // mh = m/bc1
	VDIVPD  Y13, Y3, Y3          // vh = v/bc2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3          // sqrt(vh) + eps
	VMULPD  Y1, Y14, Y1          // lr*mh
	VDIVPD  Y3, Y1, Y1           // lr*mh / (sqrt(vh) + eps)
	VMOVUPD (DI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2           // w -= ...
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     adamloop

	VZEROUPPER
	RET
