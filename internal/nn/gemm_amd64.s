//go:build amd64

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemmBlockAVX2(y *float32, yStride int, x *float32, xStride int,
//                    wt *float32, wtStride int, n, k int)
//
// Y[m][0:32] += sum_k X[m][k] * Wt[k][0:32] for m in [0, n).
// y points at the 32-wide output block, wt at the 32-wide column block.
// Strides are in elements (float32s). Rows are processed two at a time
// (8 YMM accumulators) so every weight load feeds two FMAs.
TEXT ·gemmBlockAVX2(SB), NOSPLIT, $0-64
	MOVQ y+0(FP), DI
	MOVQ yStride+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ xStride+24(FP), R9
	MOVQ wt+32(FP), DX
	MOVQ wtStride+40(FP), R10
	MOVQ n+48(FP), AX
	MOVQ k+56(FP), CX

	SHLQ $2, R8  // strides in bytes
	SHLQ $2, R9
	SHLQ $2, R10

m2loop:
	CMPQ AX, $2
	JL   mtail

	// Accumulators: two rows of 32 floats, pre-filled by the caller.
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    DI, R13
	ADDQ    R8, R13
	VMOVUPS (R13), Y4
	VMOVUPS 32(R13), Y5
	VMOVUPS 64(R13), Y6
	VMOVUPS 96(R13), Y7

	MOVQ SI, R11 // x row m
	MOVQ SI, R12 // x row m+1
	ADDQ R9, R12
	MOVQ DX, BX  // wt walker
	MOVQ CX, R15 // k counter

kloop2:
	VBROADCASTSS (R11), Y8
	VBROADCASTSS (R12), Y9
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	VMOVUPS      64(BX), Y12
	VMOVUPS      96(BX), Y13
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y10, Y9, Y4
	VFMADD231PS  Y11, Y8, Y1
	VFMADD231PS  Y11, Y9, Y5
	VFMADD231PS  Y12, Y8, Y2
	VFMADD231PS  Y12, Y9, Y6
	VFMADD231PS  Y13, Y8, Y3
	VFMADD231PS  Y13, Y9, Y7
	ADDQ         $4, R11
	ADDQ         $4, R12
	ADDQ         R10, BX
	DECQ         R15
	JNZ          kloop2

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (R13)
	VMOVUPS Y5, 32(R13)
	VMOVUPS Y6, 64(R13)
	VMOVUPS Y7, 96(R13)

	LEAQ (DI)(R8*2), DI
	LEAQ (SI)(R9*2), SI
	SUBQ $2, AX
	JMP  m2loop

mtail:
	TESTQ AX, AX
	JZ    done

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, R11
	MOVQ    DX, BX
	MOVQ    CX, R15

kloop1:
	VBROADCASTSS (R11), Y8
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	VMOVUPS      64(BX), Y12
	VMOVUPS      96(BX), Y13
	VFMADD231PS  Y10, Y8, Y0
	VFMADD231PS  Y11, Y8, Y1
	VFMADD231PS  Y12, Y8, Y2
	VFMADD231PS  Y13, Y8, Y3
	ADDQ         $4, R11
	ADDQ         R10, BX
	DECQ         R15
	JNZ          kloop1

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)

done:
	VZEROUPPER
	RET

// Vectorized activations: 8-lane sigmoid/tanh built on the same Cephes
// exp used by the scalar versions in mathf32.go. Inputs are clamped to
// the scalar saturation ranges first, which also bounds the exponent k
// of the range reduction to |k| <= 27, so the 2**k scaling is a single
// exponent-bit multiply (no two-step edge handling needed).

DATA vactLog2e<>+0(SB)/4, $0x3FB8AA3B // log2(e)
GLOBL vactLog2e<>(SB), RODATA|NOPTR, $4
DATA vactLn2Hi<>+0(SB)/4, $0x3F318000 // ln2 high split
GLOBL vactLn2Hi<>(SB), RODATA|NOPTR, $4
DATA vactLn2Lo<>+0(SB)/4, $0xB95E8083 // ln2 low split
GLOBL vactLn2Lo<>(SB), RODATA|NOPTR, $4
DATA vactP0<>+0(SB)/4, $0x39506967 // 1.9875691500e-4
GLOBL vactP0<>(SB), RODATA|NOPTR, $4
DATA vactP1<>+0(SB)/4, $0x3AB743CE // 1.3981999507e-3
GLOBL vactP1<>(SB), RODATA|NOPTR, $4
DATA vactP2<>+0(SB)/4, $0x3C088908 // 8.3334519073e-3
GLOBL vactP2<>(SB), RODATA|NOPTR, $4
DATA vactP3<>+0(SB)/4, $0x3D2AA9C1 // 4.1665795894e-2
GLOBL vactP3<>(SB), RODATA|NOPTR, $4
DATA vactP4<>+0(SB)/4, $0x3E2AAAAA // 1.6666665459e-1
GLOBL vactP4<>(SB), RODATA|NOPTR, $4
DATA vactP5<>+0(SB)/4, $0x3F000000 // 5.0000001201e-1
GLOBL vactP5<>(SB), RODATA|NOPTR, $4
DATA vactOne<>+0(SB)/4, $0x3F800000 // 1.0
GLOBL vactOne<>(SB), RODATA|NOPTR, $4
DATA vactI127<>+0(SB)/4, $0x0000007F // float32 exponent bias
GLOBL vactI127<>(SB), RODATA|NOPTR, $4
DATA vactSigHi<>+0(SB)/4, $0x41900000 // +18 (sigmoid saturation)
GLOBL vactSigHi<>(SB), RODATA|NOPTR, $4
DATA vactSigLo<>+0(SB)/4, $0xC1900000 // -18
GLOBL vactSigLo<>(SB), RODATA|NOPTR, $4
DATA vactTanhHi<>+0(SB)/4, $0x411028F6 // +9.01 (tanh saturation)
GLOBL vactTanhHi<>(SB), RODATA|NOPTR, $4
DATA vactTanhLo<>+0(SB)/4, $0xC11028F6 // -9.01
GLOBL vactTanhLo<>(SB), RODATA|NOPTR, $4

// VACTCONSTS loads the exp constants the VEXP core keeps in registers.
// Y5..Y8 hold the inner polynomial coefficients (p0/p1 broadcast per
// iteration — the register file is full), Y11..Y15 the range reduction.
#define VACTCONSTS \
	VBROADCASTSS vactP5<>(SB), Y5;    \
	VBROADCASTSS vactP4<>(SB), Y6;    \
	VBROADCASTSS vactP3<>(SB), Y7;    \
	VBROADCASTSS vactP2<>(SB), Y8;    \
	VPBROADCASTD vactI127<>(SB), Y11; \
	VBROADCASTSS vactLn2Lo<>(SB), Y12; \
	VBROADCASTSS vactLn2Hi<>(SB), Y13; \
	VBROADCASTSS vactLog2e<>(SB), Y14; \
	VBROADCASTSS vactOne<>(SB), Y15

// VEXP replaces Y0 (8 floats, |x| <= 19 after clamping) with e**Y0,
// clobbering Y1-Y4: kf = round(x*log2e); r = x - kf*ln2 (two-part ln2
// split); exp(r) = 1 + r + r^2*P(r); scale by 2^k through the exponent
// bits. VROUNDPS rounds half-to-even where the scalar rounds half away
// from zero; the two can differ by one ulp of the result at exact halves.
#define VEXP \
	VMULPS       Y14, Y0, Y1;         \
	VROUNDPS     $0, Y1, Y1;          \
	VMOVAPS      Y1, Y2;              \
	VFNMADD213PS Y0, Y13, Y2;         \
	VFNMADD231PS Y12, Y1, Y2;         \
	VBROADCASTSS vactP0<>(SB), Y3;    \
	VBROADCASTSS vactP1<>(SB), Y4;    \
	VFMADD213PS  Y4, Y2, Y3;          \
	VFMADD213PS  Y8, Y2, Y3;          \
	VFMADD213PS  Y7, Y2, Y3;          \
	VFMADD213PS  Y6, Y2, Y3;          \
	VFMADD213PS  Y5, Y2, Y3;          \
	VMULPS       Y2, Y2, Y4;          \
	VFMADD213PS  Y2, Y4, Y3;          \
	VADDPS       Y15, Y3, Y3;         \
	VCVTPS2DQ    Y1, Y1;              \
	VPADDD       Y11, Y1, Y1;         \
	VPSLLD       $23, Y1, Y1;         \
	VMULPS       Y1, Y3, Y0

// func vsigmoidAVX2(v *float32, n int)
//
// v[i] = 1/(1+e**-v[i]) for i in [0, n); n > 0 and a multiple of 8.
TEXT ·vsigmoidAVX2(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VACTCONSTS
	VBROADCASTSS vactSigLo<>(SB), Y9
	VBROADCASTSS vactSigHi<>(SB), Y10

sigloop:
	VMOVUPS (DI), Y0
	VMINPS  Y10, Y0, Y0 // clamp to the scalar saturation range
	VMAXPS  Y9, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VSUBPS  Y0, Y1, Y0  // -x
	VEXP
	VADDPS  Y15, Y0, Y0 // 1 + e**-x
	VDIVPS  Y0, Y15, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     sigloop

	VZEROUPPER
	RET

// func vtanhAVX2(v *float32, n int)
//
// v[i] = tanh(v[i]) via (e**2x - 1)/(e**2x + 1); n > 0, multiple of 8.
TEXT ·vtanhAVX2(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VACTCONSTS
	VBROADCASTSS vactTanhLo<>(SB), Y9
	VBROADCASTSS vactTanhHi<>(SB), Y10

tanhloop:
	VMOVUPS (DI), Y0
	VMINPS  Y10, Y0, Y0
	VMAXPS  Y9, Y0, Y0
	VADDPS  Y0, Y0, Y0 // 2x
	VEXP
	VSUBPS  Y15, Y0, Y2 // e - 1
	VADDPS  Y15, Y0, Y3 // e + 1
	VDIVPS  Y3, Y2, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     tanhloop

	VZEROUPPER
	RET
