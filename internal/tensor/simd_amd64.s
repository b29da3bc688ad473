// AVX2+FMA kernels for the vector backend. Every function here is a leaf
// (NOSPLIT, no calls back into Go) operating on caller-pinned slices, so the
// only ABI obligations are the ABI0 argument frame and VZEROUPPER before
// returning to SSE-era code.
//
// Numerical contract (see backend.go): these kernels use fused multiply-add,
// one rounding where the scalar backend rounds the multiply and the add, so
// the vector tier is held to scalar by tolerance-based differential tests and
// to its own written contract bit for bit. addToAVX2, addTo8AVX2 and
// poolSumAVX2 contain no multiplies and preserve per-element add order, so
// they remain bit-identical to scalar.

#include "textflag.h"

// func axpyAVX2(alpha float32, x, y []float32)
//
// y += alpha·x, 32 elements per main iteration. Elements are independent, so
// the only numerical difference from scalar is the fused rounding of each
// multiply-add (the scalar tail uses scalar FMA for the same reason).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI
	MOVQ CX, AX
	SHRQ $5, AX
	JZ   axpy8

axpy32:
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	VFMADD231PS (SI), Y0, Y1
	VFMADD231PS 32(SI), Y0, Y2
	VFMADD231PS 64(SI), Y0, Y3
	VFMADD231PS 96(SI), Y0, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  axpy32

axpy8:
	MOVQ CX, AX
	ANDQ $31, AX
	SHRQ $3, AX
	JZ   axpytail

axpy8loop:
	VMOVUPS (DI), Y1
	VFMADD231PS (SI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  axpy8loop

axpytail:
	MOVQ CX, AX
	ANDQ $7, AX
	JZ   axpydone

axpyscalar:
	VMOVSS (DI), X1
	VFMADD231SS (SI), X0, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ AX
	JNZ  axpyscalar

axpydone:
	VZEROUPPER
	RET

// func addToAVX2(y, x []float32)
//
// y += x elementwise. Pure adds — bit-identical to the scalar backend.
TEXT ·addToAVX2(SB), NOSPLIT, $0-48
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ CX, AX
	SHRQ $5, AX
	JZ   add8

add32:
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	VADDPS  (SI), Y1, Y1
	VADDPS  32(SI), Y2, Y2
	VADDPS  64(SI), Y3, Y3
	VADDPS  96(SI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    AX
	JNZ     add32

add8:
	MOVQ CX, AX
	ANDQ $31, AX
	SHRQ $3, AX
	JZ   addtail

add8loop:
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    AX
	JNZ     add8loop

addtail:
	MOVQ CX, AX
	ANDQ $7, AX
	JZ   adddone

addscalar:
	VMOVSS (DI), X1
	VADDSS (SI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   AX
	JNZ    addscalar

adddone:
	VZEROUPPER
	RET

// func addTo8AVX2(dst *float32, n int, s0, s1, s2, s3, s4, s5, s6, s7 *float32)
//
// AddTo8's kernel (no longer on a serving path — see AddTo8): dst[j] += s0[j]
// + … + s7[j] for the first n (a multiple of 8; the Go wrapper finishes the
// tail) elements, adds applied in source order per element — the scalar
// loop's accumulation order, so results are bit-identical across backends.
// One dst load/store per 8 elements instead of 8, with the eight source rows
// streaming through a single vector chain.
TEXT ·addTo8AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ s0+16(FP), SI
	MOVQ s1+24(FP), BX
	MOVQ s2+32(FP), DX
	MOVQ s3+40(FP), R8
	MOVQ s4+48(FP), R9
	MOVQ s5+56(FP), R10
	MOVQ s6+64(FP), R11
	MOVQ s7+72(FP), R12
	SHRQ $3, CX
	JZ   pool8done

pool8loop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VADDPS  (BX), Y0, Y0
	VADDPS  (DX), Y0, Y0
	VADDPS  (R8), Y0, Y0
	VADDPS  (R9), Y0, Y0
	VADDPS  (R10), Y0, Y0
	VADDPS  (R11), Y0, Y0
	VADDPS  (R12), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, R12
	DECQ    CX
	JNZ     pool8loop

pool8done:
	VZEROUPPER
	RET

// func poolSumAVX2(dst, table *float32, rows, stride, vecs int, lists [][]int) (off, pos int)
//
// The embedding bag's gather-and-pool kernel (tensor.PoolSum) over one column
// block of vecs·8 floats (vecs is 4, 2 or 1): dst and table point at the
// block's first column in row 0, stride is the byte distance between rows of
// either. For each list the block of the output row lives in Y0–Y3 from +0
// until the list ends, takes one VADDPS per gathered row in list order — the
// scalar loop's per-element order, so the bits are the scalar backend's — and
// is stored once; nothing else writes dst. The kernel walks the slice headers
// itself (24 bytes each; a zero-length list's pointer is never read).
//
// Every index is compared, unsigned, against rows before its row is loaded.
// On the first one out of range the kernel returns the byte offset of its
// list's header and its position in the list; (-1, -1) otherwise.
//
// A second cursor runs poolAhead lookups in front of the first, through the
// same lists and across their boundaries, and issues PREFETCHT0 for both
// cache lines of the 128-byte block it will reach. That address is the one
// place an index is used before it is checked, which is safe because a
// prefetch is a hint: it raises no fault on any address, mapped or not, and
// changes no architectural state.
//
// Register shape, by measurement (CHANGES, issue 18; variants alternated
// inside one process): one list at a time in four YMM accumulators. At about
// 18 issued µops per lookup the loop is bound by issue width, not by the
// 4-cycle add chain, so two lists interleaved in eight YMM measured the same
// (ratio 0.97–1.00); two ZMM accumulators were 15–17% faster on the kernel
// alone but 1.3–2.1% inside an RMC1 batch-256 forward pass, two lists in four
// ZMM 23–25% and 2.7–3.5%. A ZMM kernel cannot serve the AVX2 tier, and none
// of these earns the 10% a second kernel has to: this one serves both vector
// tiers. Prefetch distances 16 to 64 measured alike in the pass, 8 was 3–5%
// slower and no prefetch 6–7%.
#define poolAhead 16

TEXT ·poolSumAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ table+8(FP), SI
	MOVQ stride+24(FP), DX
	MOVQ vecs+32(FP), R14
	MOVQ lists_base+40(FP), BX
	MOVQ lists_len+48(FP), CX
	LEAQ (CX)(CX*2), CX
	LEAQ (BX)(CX*8), CX  // end of the headers
	LEAQ -24(BX), R10    // prefetch cursor: header, next index, end of its list
	XORQ R11, R11
	XORQ R12, R12
	MOVQ $poolAhead, R13 // steps the prefetch cursor takes before the first add

poollist:
	CMPQ BX, CX
	JAE  poolok
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ 8(BX), AX
	TESTQ AX, AX
	JZ   poolstore
	MOVQ (BX), R8        // next index, end of the list
	LEAQ (R8)(AX*8), R9

poolstep:
	CMPQ R11, R12
	JEQ  poolnextlist

poolfetch:
	MOVQ (R11), AX
	ADDQ $8, R11
	IMULQ DX, AX
	PREFETCHT0 (SI)(AX*1)
	PREFETCHT0 64(SI)(AX*1)

pooltake:
	TESTQ R13, R13
	JNZ  poolwarm
	MOVQ (R8), AX
	CMPQ AX, rows+16(FP)
	JAE  poolbad
	ADDQ $8, R8
	IMULQ DX, AX
	VADDPS (SI)(AX*1), Y0, Y0
	CMPQ R14, $2 // VEX adds leave the flags for both branches
	JB   pooltaken
	VADDPS 32(SI)(AX*1), Y1, Y1
	JEQ  pooltaken
	VADDPS 64(SI)(AX*1), Y2, Y2
	VADDPS 96(SI)(AX*1), Y3, Y3

pooltaken:
	CMPQ R8, R9
	JNE  poolstep

poolstore:
	VMOVUPS Y0, (DI)
	CMPQ R14, $2
	JB   poolstored
	VMOVUPS Y1, 32(DI)
	JEQ  poolstored
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)

poolstored:
	ADDQ DX, DI
	ADDQ $24, BX
	JMP  poollist

poolwarm:
	DECQ R13
	JMP  poolstep

poolnextlist:
	ADDQ $24, R10
	CMPQ R10, CX
	JAE  poolspent
	MOVQ 8(R10), AX
	TESTQ AX, AX
	JZ   poolnextlist
	MOVQ (R10), R11
	LEAQ (R11)(AX*8), R12
	JMP  poolfetch

poolspent:
	SUBQ $24, R10 // parked on the last header: every later step lands here
	JMP  pooltake

poolbad:
	SUBQ (BX), R8
	SHRQ $3, R8
	SUBQ lists_base+40(FP), BX
	MOVQ BX, off+64(FP)
	MOVQ R8, pos+72(FP)
	VZEROUPPER
	RET

poolok:
	MOVQ $-1, off+64(FP)
	MOVQ $-1, pos+72(FP)
	VZEROUPPER
	RET

// GEMM micro-kernels. All accumulate over one k-tile into a block of c held
// in registers: c = start + a·p, where start is c itself when init is nil
// (FCInto's later k-tiles: c holds the earlier tiles' sums) or, for every
// row of the block, the strip-wide vector at init (FCInto's first k-tile: the
// layer's bias, so c is never pre-filled). A nonzero relu clamps the block
// as it is stored (FCInto's last k-tile): max(0, v) with v as VMAXPS's
// second source, the operand it returns for NaNs and for equal zeros, so -0,
// NaN payloads and +Inf keep their bits (see tensor.ReLU). p is a kc-row
// Panel strip with row stride ldp elements (the strip width). ldc/lda are
// row strides of c/a in elements.

// func gemm4x16(c *float32, ldc int, a *float32, lda int, p *float32, ldp, kc int, init *float32, relu int)
//
// The main kernel: a 4-row × 16-column block of c lives in 8 YMM accumulators
// across the whole k-tile. Per k step: 2 panel loads, 4 broadcasts, 8 FMAs —
// eight independent accumulation chains, enough to keep both FMA ports busy
// (the scalar ceiling this backend exists to break is one mul-add chain).
TEXT ·gemm4x16(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	SHLQ $2, DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), CX
	SHLQ $2, CX
	MOVQ p+32(FP), BX
	LEAQ (SI)(CX*1), R11
	LEAQ (SI)(CX*2), R12
	LEAQ (R11)(CX*2), R13
	MOVQ ldp+40(FP), CX
	SHLQ $2, CX
	MOVQ kc+48(FP), AX
	LEAQ (DI)(DX*1), R8
	LEAQ (DI)(DX*2), R9
	LEAQ (R8)(DX*2), R10
	MOVQ init+56(FP), DX
	TESTQ DX, DX
	JZ   g4x16loadc
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y1, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y1, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y1, Y7
	JMP  g4x16k

g4x16loadc:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (R8), Y2
	VMOVUPS 32(R8), Y3
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	VMOVUPS (R10), Y6
	VMOVUPS 32(R10), Y7

g4x16k:
	TESTQ AX, AX
	JZ    g4x16done

g4x16loop:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13
	VBROADCASTSS (SI), Y14
	VBROADCASTSS (R11), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS (R12), Y14
	VBROADCASTSS (R13), Y15
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	ADDQ CX, BX
	ADDQ $4, SI
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ AX
	JNZ  g4x16loop

g4x16done:
	MOVQ  relu+64(FP), DX
	TESTQ DX, DX
	JZ    g4x16store
	VXORPS Y12, Y12, Y12
	VMAXPS Y0, Y12, Y0
	VMAXPS Y1, Y12, Y1
	VMAXPS Y2, Y12, Y2
	VMAXPS Y3, Y12, Y3
	VMAXPS Y4, Y12, Y4
	VMAXPS Y5, Y12, Y5
	VMAXPS Y6, Y12, Y6
	VMAXPS Y7, Y12, Y7

g4x16store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	VMOVUPS Y6, (R10)
	VMOVUPS Y7, 32(R10)
	VZEROUPPER
	RET

// func gemm1x16(c *float32, a *float32, p *float32, ldp, kc int, init *float32, relu int)
//
// Row tail (m mod 4) of the 16-wide strips: one row, two accumulators.
TEXT ·gemm1x16(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), BX
	MOVQ ldp+24(FP), CX
	SHLQ $2, CX
	MOVQ kc+32(FP), AX
	MOVQ init+40(FP), DX
	TESTQ DX, DX
	CMOVQEQ DI, DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	TESTQ   AX, AX
	JZ      g1x16done

g1x16loop:
	VBROADCASTSS (SI), Y14
	VFMADD231PS (BX), Y14, Y0
	VFMADD231PS 32(BX), Y14, Y1
	ADDQ CX, BX
	ADDQ $4, SI
	DECQ AX
	JNZ  g1x16loop

g1x16done:
	MOVQ  relu+48(FP), DX
	TESTQ DX, DX
	JZ    g1x16store
	VXORPS Y12, Y12, Y12
	VMAXPS Y0, Y12, Y0
	VMAXPS Y1, Y12, Y1

g1x16store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func gemm4x8(c *float32, ldc int, a *float32, lda int, p *float32, ldp, kc int, init *float32, relu int)
//
// Column tail (8 ≤ cols < 16): 4 rows × 8 columns, four accumulators.
TEXT ·gemm4x8(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	SHLQ $2, DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), CX
	SHLQ $2, CX
	MOVQ p+32(FP), BX
	LEAQ (SI)(CX*1), R11
	LEAQ (SI)(CX*2), R12
	LEAQ (R11)(CX*2), R13
	MOVQ ldp+40(FP), CX
	SHLQ $2, CX
	MOVQ kc+48(FP), AX
	LEAQ (DI)(DX*1), R8
	LEAQ (DI)(DX*2), R9
	LEAQ (R8)(DX*2), R10
	MOVQ init+56(FP), DX
	TESTQ DX, DX
	JZ   g4x8loadc
	VMOVUPS (DX), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	JMP  g4x8k

g4x8loadc:
	VMOVUPS (DI), Y0
	VMOVUPS (R8), Y1
	VMOVUPS (R9), Y2
	VMOVUPS (R10), Y3

g4x8k:
	TESTQ AX, AX
	JZ    g4x8done

g4x8loop:
	VMOVUPS (BX), Y12
	VBROADCASTSS (SI), Y14
	VBROADCASTSS (R11), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y12, Y15, Y1
	VBROADCASTSS (R12), Y14
	VBROADCASTSS (R13), Y15
	VFMADD231PS Y12, Y14, Y2
	VFMADD231PS Y12, Y15, Y3
	ADDQ CX, BX
	ADDQ $4, SI
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ AX
	JNZ  g4x8loop

g4x8done:
	MOVQ  relu+64(FP), DX
	TESTQ DX, DX
	JZ    g4x8store
	VXORPS Y12, Y12, Y12
	VMAXPS Y0, Y12, Y0
	VMAXPS Y1, Y12, Y1
	VMAXPS Y2, Y12, Y2
	VMAXPS Y3, Y12, Y3

g4x8store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (R8)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, (R10)
	VZEROUPPER
	RET

// func gemm1x8(c *float32, a *float32, p *float32, ldp, kc int, init *float32, relu int)
//
// Row tail of the 8-wide strips: one row, one accumulator.
TEXT ·gemm1x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ p+16(FP), BX
	MOVQ ldp+24(FP), CX
	SHLQ $2, CX
	MOVQ kc+32(FP), AX
	MOVQ init+40(FP), DX
	TESTQ DX, DX
	CMOVQEQ DI, DX
	VMOVUPS (DX), Y0
	TESTQ   AX, AX
	JZ      g1x8done

g1x8loop:
	VBROADCASTSS (SI), Y14
	VFMADD231PS (BX), Y14, Y0
	ADDQ CX, BX
	ADDQ $4, SI
	DECQ AX
	JNZ  g1x8loop

g1x8done:
	MOVQ  relu+48(FP), DX
	TESTQ DX, DX
	JZ    g1x8store
	VXORPS Y12, Y12, Y12
	VMAXPS Y0, Y12, Y0

g1x8store:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func reluAVX2(x *float32, n int)
//
// In-place ReLU over the first n (a multiple of 8; the Go wrapper finishes the
// tail) elements: max(0, v) with v as the second source — see the GEMM
// kernels' relu epilogue for why that operand order keeps -0 and NaN bits.
TEXT ·reluAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y12, Y12, Y12
	MOVQ CX, AX
	SHRQ $5, AX
	JZ   relu8

relu32:
	VMAXPS (DI), Y12, Y0
	VMAXPS 32(DI), Y12, Y1
	VMAXPS 64(DI), Y12, Y2
	VMAXPS 96(DI), Y12, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	DECQ AX
	JNZ  relu32

relu8:
	ANDQ $31, CX
	SHRQ $3, CX
	JZ   reludone

relu8loop:
	VMAXPS (DI), Y12, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  relu8loop

reludone:
	VZEROUPPER
	RET
