// The Stream fills' vector kernels (see Stream in stream.go for the
// definition they compute). AVX2 suffices, so each one serves both vector
// tiers. They are leaves (NOSPLIT, no calls back into Go) that keep the eight
// lanes' state in Y0–Y7 across a whole fill — word w of lanes 0–3 in
// Y(2w), of lanes 4–7 in Y(2w+1), as Stream.s lays them out — and write it
// back when they return. Everything is integer arithmetic or exact float32
// arithmetic, so every backend draws the same values.

#include "go_asm.h"
#include "textflag.h"

#define LOADSTATE \
	VMOVDQU Stream_s+0(SI), Y0; \
	VMOVDQU Stream_s+32(SI), Y1; \
	VMOVDQU Stream_s+64(SI), Y2; \
	VMOVDQU Stream_s+96(SI), Y3; \
	VMOVDQU Stream_s+128(SI), Y4; \
	VMOVDQU Stream_s+160(SI), Y5; \
	VMOVDQU Stream_s+192(SI), Y6; \
	VMOVDQU Stream_s+224(SI), Y7

#define STORESTATE \
	VMOVDQU Y0, Stream_s+0(SI); \
	VMOVDQU Y1, Stream_s+32(SI); \
	VMOVDQU Y2, Stream_s+64(SI); \
	VMOVDQU Y3, Stream_s+96(SI); \
	VMOVDQU Y4, Stream_s+128(SI); \
	VMOVDQU Y5, Stream_s+160(SI); \
	VMOVDQU Y6, Stream_s+192(SI); \
	VMOVDQU Y7, Stream_s+224(SI)

// ROUND is one round: u₀…u₃ in Y10 and u₄…u₇ in Y11, every lane stepped.
// AVX2 has no 64-bit rotate, so each rotl is two shifts and an OR. Clobbers
// Y12 and Y13.
#define ROUND \
	VPADDQ Y0, Y6, Y12; \
	VPADDQ Y1, Y7, Y13; \
	VPSLLQ $23, Y12, Y10; \
	VPSLLQ $23, Y13, Y11; \
	VPSRLQ $41, Y12, Y12; \
	VPSRLQ $41, Y13, Y13; \
	VPOR   Y12, Y10, Y10; \
	VPOR   Y13, Y11, Y11; \
	VPADDQ Y0, Y10, Y10; \
	VPADDQ Y1, Y11, Y11; \
	VPSLLQ $17, Y2, Y12; \
	VPSLLQ $17, Y3, Y13; \
	VPXOR  Y0, Y4, Y4; \
	VPXOR  Y1, Y5, Y5; \
	VPXOR  Y2, Y6, Y6; \
	VPXOR  Y3, Y7, Y7; \
	VPXOR  Y4, Y2, Y2; \
	VPXOR  Y5, Y3, Y3; \
	VPXOR  Y6, Y0, Y0; \
	VPXOR  Y7, Y1, Y1; \
	VPXOR  Y12, Y4, Y4; \
	VPXOR  Y13, Y5, Y5; \
	VPSLLQ $45, Y6, Y12; \
	VPSLLQ $45, Y7, Y13; \
	VPSRLQ $19, Y6, Y6; \
	VPSRLQ $19, Y7, Y7; \
	VPOR   Y12, Y6, Y6; \
	VPOR   Y13, Y7, Y7

// func indicesAVX2(st *Stream, idx []int, rows, reject uint64) (n int)
//
// Stream.indices below 2^32 rows: fills idx a round (sixteen indices) at a
// time and returns how many it filled. Each round's outputs go to st.u
// before anything else; the kernel returns — the round stepped, nothing of
// it stored in idx — at the first round that fewer than sixteen slots remain
// for or that rejects a half, and the caller finishes that round by the rule.
// Lemire's products are VPMULUDQ's: the low dword of each qword times rows.
// A half is rejected when its product's low dword is below reject, so a
// round passes when the unsigned minimum over its products and reject —
// whose high dwords are 0 — equals reject in every dword.
TEXT ·indicesAVX2(SB), NOSPLIT, $0-56
	MOVQ st+0(FP), SI
	MOVQ idx_base+8(FP), DI
	MOVQ idx_len+16(FP), CX
	XORQ AX, AX
	LOADSTATE
	VPBROADCASTQ rows+32(FP), Y8
	VPBROADCASTQ reject+40(FP), Y9

idxround:
	CMPQ AX, CX
	JEQ  idxdone
	ROUND
	VMOVDQU Y10, Stream_u+0(SI)
	VMOVDQU Y11, Stream_u+32(SI)
	LEAQ 16(AX), DX
	CMPQ DX, CX
	JA   idxdone
	VPSRLQ   $32, Y10, Y12
	VPSRLQ   $32, Y11, Y13
	VPMULUDQ Y8, Y12, Y12 // high halves of u₀…u₃
	VPMULUDQ Y8, Y13, Y13 // high halves of u₄…u₇
	VPMULUDQ Y8, Y10, Y14 // low halves of u₀…u₃
	VPMULUDQ Y8, Y11, Y15 // low halves of u₄…u₇
	VPMINUD  Y12, Y13, Y10
	VPMINUD  Y14, Y15, Y11
	VPMINUD  Y10, Y11, Y10
	VPMINUD  Y9, Y10, Y10
	VPCMPEQD Y9, Y10, Y10
	VPMOVMSKB Y10, BX
	CMPL BX, $-1
	JNE  idxdone
	VPSRLQ  $32, Y12, Y12
	VPSRLQ  $32, Y13, Y13
	VPSRLQ  $32, Y14, Y14
	VPSRLQ  $32, Y15, Y15
	VMOVDQU Y12, 0(DI)
	VMOVDQU Y13, 32(DI)
	VMOVDQU Y14, 64(DI)
	VMOVDQU Y15, 96(DI)
	ADDQ $128, DI
	MOVQ DX, AX
	JMP  idxround

idxdone:
	STORESTATE
	MOVQ AX, n+48(FP)
	VZEROUPPER
	RET

// func denseAVX2(st *Stream, x []float32) (n int)
//
// Stream.dense: fills x a round (sixteen features) at a time and returns how
// many it filled; at the first round fewer than sixteen slots remain for it
// leaves that round's outputs in st.u for the caller. A round's halves are
// gathered high first with VSHUFPS (odd or even dwords of both registers,
// per 128-bit lane) and VPERMQ (restoring lane order); float32(x>>8)·2⁻²³ − 1
// is exact at every step, so VCVTDQ2PS, VMULPS and VSUBPS give the scalar
// bits.
TEXT ·denseAVX2(SB), NOSPLIT, $0-40
	MOVQ st+0(FP), SI
	MOVQ x_base+8(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX
	LOADSTATE
	MOVL $0x34000000, BX // 2⁻²³
	VMOVD BX, X8
	VPBROADCASTD X8, Y8
	MOVL $0x3f800000, BX // 1
	VMOVD BX, X9
	VPBROADCASTD X9, Y9

denseround:
	CMPQ AX, CX
	JEQ  densedone
	ROUND
	LEAQ 16(AX), DX
	CMPQ DX, CX
	JA   densepend
	VSHUFPS $0xdd, Y11, Y10, Y12 // high halves: u₀ u₁ u₄ u₅ | u₂ u₃ u₆ u₇
	VSHUFPS $0x88, Y11, Y10, Y13 // low halves, the same order
	VPERMQ  $0xd8, Y12, Y12
	VPERMQ  $0xd8, Y13, Y13
	VPSRLD  $8, Y12, Y12
	VPSRLD  $8, Y13, Y13
	VCVTDQ2PS Y12, Y12
	VCVTDQ2PS Y13, Y13
	VMULPS  Y8, Y12, Y12
	VMULPS  Y8, Y13, Y13
	VSUBPS  Y9, Y12, Y12
	VSUBPS  Y9, Y13, Y13
	VMOVUPS Y12, 0(DI)
	VMOVUPS Y13, 32(DI)
	ADDQ $64, DI
	MOVQ DX, AX
	JMP  denseround

densepend:
	VMOVDQU Y10, Stream_u+0(SI)
	VMOVDQU Y11, Stream_u+32(SI)

densedone:
	STORESTATE
	MOVQ AX, n+32(FP)
	VZEROUPPER
	RET
