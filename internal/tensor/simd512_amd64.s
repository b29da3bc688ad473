// The AVX512 backend's only kernel: the GEMM family's register tile, widened
// to ZMM. It encodes AVX-512F and nothing else (VPXORD, not the DQ form of
// VXORPS) and, like the 256-bit kernels, is a NOSPLIT leaf ending in
// VZEROUPPER (which clears the upper halves of ZMM0–15; ZMM16–31 have no
// legacy alias, so they need none).
//
// Numerical contract (see backend.go): each output element receives
// fma(a[i,k], b[k,j], acc) in increasing k — a as the FMA's second source and
// b as its third, as in gemm4x16, so an fma of two NaNs returns the same one —
// from the same start and through the same clamp. Bit-identical to the AVX2
// kernels on every input; which kernel computes a block is invisible.

#include "textflag.h"

// One row of the tile: accumulators lo (columns 0–15, the first strip) and hi
// (columns 16–31, the second).

#define SEED(lo, hi) \
	VMOVAPS Z28, lo; \
	VMOVAPS Z29, hi

#define LOADC(lo, hi) \
	VMOVUPS (R9), lo; \
	VMOVUPS 64(R9), hi; \
	ADDQ    DX, R9

#define STEP(arow, bcast, lo, hi) \
	VBROADCASTSS arow, bcast; \
	VFMADD231PS  Z28, bcast, lo; \
	VFMADD231PS  Z29, bcast, hi

#define CLAMP(lo, hi) \
	VMAXPS lo, Z30, lo; \
	VMAXPS hi, Z30, hi

#define STOREC(lo, hi) \
	VMOVUPS lo, (DI); \
	VMOVUPS hi, 64(DI); \
	ADDQ    DX, DI

// func gemm8x32(c *float32, ldc int, a *float32, lda int, p0, p1 *float32, ldp, kc int, init *float32, relu int)
//
// gemm4x16 at twice the height and twice the width: an 8-row × 32-column
// block of c in 16 ZMM accumulators across the whole k-tile, over two
// adjacent 16-column strips p0 and p1 (two Panel strips kc·16 floats apart,
// two packed copies, or b itself with p1 = p0+16; both with row stride ldp).
// Per k step: 2 panel loads, 8 broadcasts, 16 FMAs — sixteen independent
// chains for two 4-cycle FMA ports, 10 loads against the 16 those 8 cycles
// can issue. init and relu are gemm4x16's: init, when non-nil, is the 32
// starting values every row takes instead of loading c; a nonzero relu clamps
// as the block is stored. The tile height was chosen by measurement: with
// operands in L1 the 8-, 12- and 14-row variants all run at the ZMM FMA peak,
// inside a batch-256 layer they differ by less than run-to-run noise, and 8
// leaves the fewest remainder rows to the 256-bit kernels (none at batch 16
// and 32, where the taller tiles lost 15–35%).
TEXT ·gemm8x32(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	SHLQ $2, DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), CX
	SHLQ $2, CX
	LEAQ (CX)(CX*2), R12 // rows 3 and 7 sit 3·lda past rows 0 and 4
	LEAQ (SI)(CX*4), R11 // row 4
	MOVQ p0+32(FP), BX
	MOVQ p1+40(FP), R8
	MOVQ ldp+48(FP), R10
	SHLQ $2, R10
	MOVQ kc+56(FP), AX
	MOVQ init+64(FP), R9
	TESTQ R9, R9
	JZ   g8x32loadc
	VMOVUPS (R9), Z28
	VMOVUPS 64(R9), Z29
	SEED(Z0, Z1)
	SEED(Z2, Z3)
	SEED(Z4, Z5)
	SEED(Z6, Z7)
	SEED(Z8, Z9)
	SEED(Z10, Z11)
	SEED(Z12, Z13)
	SEED(Z14, Z15)
	JMP  g8x32k

g8x32loadc:
	MOVQ DI, R9
	LOADC(Z0, Z1)
	LOADC(Z2, Z3)
	LOADC(Z4, Z5)
	LOADC(Z6, Z7)
	LOADC(Z8, Z9)
	LOADC(Z10, Z11)
	LOADC(Z12, Z13)
	LOADC(Z14, Z15)

g8x32k:
	TESTQ AX, AX
	JZ    g8x32done

g8x32loop:
	VMOVUPS (BX), Z28
	VMOVUPS (R8), Z29
	STEP((SI), Z30, Z0, Z1)
	STEP((SI)(CX*1), Z31, Z2, Z3)
	STEP((SI)(CX*2), Z30, Z4, Z5)
	STEP((SI)(R12*1), Z31, Z6, Z7)
	STEP((R11), Z30, Z8, Z9)
	STEP((R11)(CX*1), Z31, Z10, Z11)
	STEP((R11)(CX*2), Z30, Z12, Z13)
	STEP((R11)(R12*1), Z31, Z14, Z15)
	ADDQ R10, BX
	ADDQ R10, R8
	ADDQ $4, SI
	ADDQ $4, R11
	DECQ AX
	JNZ  g8x32loop

g8x32done:
	MOVQ  relu+72(FP), AX
	TESTQ AX, AX
	JZ    g8x32store
	VPXORD Z30, Z30, Z30
	CLAMP(Z0, Z1)
	CLAMP(Z2, Z3)
	CLAMP(Z4, Z5)
	CLAMP(Z6, Z7)
	CLAMP(Z8, Z9)
	CLAMP(Z10, Z11)
	CLAMP(Z12, Z13)
	CLAMP(Z14, Z15)

g8x32store:
	STOREC(Z0, Z1)
	STOREC(Z2, Z3)
	STOREC(Z4, Z5)
	STOREC(Z6, Z7)
	STOREC(Z8, Z9)
	STOREC(Z10, Z11)
	STOREC(Z12, Z13)
	STOREC(Z14, Z15)
	VZEROUPPER
	RET
