package tensor

import (
	"fmt"
	"slices"
	"sync"
)

// MatMul returns a × b for a of shape [m x k] and b of shape [k x n].
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	return matMulPacked(New(a.Rows, b.Cols), a, b, nil)
}

// MatMulInto computes dst = a × b without allocating: dst must have shape
// [a.Rows x b.Cols] and must not alias a or b. It returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto inner dim mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape [%dx%d], want [%dx%d]", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	return matMulPacked(dst, a, b, nil)
}

// MatMulAddBias returns a × w + bias, where bias is a [1 x n] row vector
// broadcast over the rows of the product.
func MatMulAddBias(a, w, bias *Tensor) *Tensor {
	checkMatMulBias(a, w, bias)
	return matMulPacked(New(a.Rows, w.Cols), a, w, bias)
}

// MatMulAddBiasInto computes dst = a × w + bias without allocating: dst must
// have shape [a.Rows x w.Cols] and must not alias a, w, or bias. It returns
// dst.
func MatMulAddBiasInto(dst, a, w, bias *Tensor) *Tensor {
	checkMatMulBias(a, w, bias)
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddBiasInto dst shape [%dx%d], want [%dx%d]", dst.Rows, dst.Cols, a.Rows, w.Cols))
	}
	return matMulPacked(dst, a, w, bias)
}

func checkMatMulBias(a, w, bias *Tensor) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddBias inner dim mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if bias.Rows != 1 || bias.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: bias shape [%dx%d] incompatible with output cols %d", bias.Rows, bias.Cols, w.Cols))
	}
}

// gemmScratch is the storage MatMul* packs b into, plus the zero bias row the
// products without a bias start from (never written, so it stays zero).
type gemmScratch struct {
	p    Panel
	zero Tensor
}

// gemmPool keeps packs between calls, so the Into forms allocate nothing in
// steady state.
var gemmPool sync.Pool

// matMulPacked is every MatMul*: b packed for this call, then the panel kernel
// (FCInto) from bias, or from zeros when bias is nil. So both backends give
// exactly the bits FCInto gives for the same operands.
func matMulPacked(dst, a, b, bias *Tensor) *Tensor {
	k, n := a.Cols, b.Cols
	if k == 0 { // no k-tile for FCInto to start from the bias in
		for i := 0; i < dst.Rows; i++ {
			if bias != nil {
				copy(dst.Row(i), bias.Data)
			} else {
				clear(dst.Row(i))
			}
		}
		return dst
	}
	s, _ := gemmPool.Get().(*gemmScratch)
	if s == nil {
		s = new(gemmScratch)
	}
	s.p.Rows, s.p.Cols, s.p.data = k, n, slices.Grow(s.p.data[:0], k*n)[:k*n]
	for r := 0; r < k; r++ {
		s.p.setRow(r, b.Row(r))
	}
	if bias == nil {
		s.zero.Rows, s.zero.Cols, s.zero.Data = 1, n, slices.Grow(s.zero.Data[:0], n)[:n]
		bias = &s.zero
	}
	FCInto(dst, a, &s.p, bias, false)
	gemmPool.Put(s)
	return dst
}

// refMatMulAccum is the naive rank-1-update reference kernel — the
// project's historical matmul loop, retained so the equivalence tests can
// pin the scalar backend to it bit-for-bit. Its per-element accumulation
// order (increasing k, one multiply-add per nonzero a element) is the
// contract the scalar kernels preserve.
func refMatMulAccum(out, a, b *Tensor) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		aRow := a.Row(i)
		outRow := out.Row(i)
		for k, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b.Data[k*n : k*n+n]
			for j, bv := range bRow {
				outRow[j] += av * bv
			}
		}
	}
}

// AddTo accumulates y += x elementwise over equal-length vectors — the
// pooling primitive of the embedding bag. Elements are independent and both
// backends apply one add per element, so AddTo is bit-identical under scalar
// and SIMD dispatch.
func AddTo(y, x []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: AddTo length mismatch %d vs %d", len(y), len(x)))
	}
	if simdActive() {
		addToSIMD(y, x)
		return
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += x[i]
		y[i+1] += x[i+1]
		y[i+2] += x[i+2]
		y[i+3] += x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// AXPY accumulates y += alpha·x elementwise over equal-length vectors.
// Elements are independent; the scalar path rounds the multiply and add
// separately while the AVX2 path fuses them (one rounding), so AXPY is in
// the tolerance tier under SIMD dispatch.
func AXPY(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	if simdActive() {
		axpySIMD(alpha, x, y)
		return
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// AddTo8 accumulates eight source rows into dst in one fused pass: for each
// element j, dst[j] += s0[j]; dst[j] += s1[j]; … dst[j] += s7[j], in that
// order. The AVX2 path applies the same per-element source order with vector
// adds (no multiplies), so AddTo8 is bit-identical across backends. Every
// source must be at least len(dst) long; callers slice sources to the
// destination width.
//
// It was the embedding bag's eight-row pooling pass until PoolSum took the
// gather in as well, and is now the scalar PoolSum's inner pass only: its
// vector path has no caller left in the product (under a vector backend
// PoolSum reaches AddTo8 for the under-8-column tail, which never gets as far
// as the assembly) and stays because cmd/bench's ladder times it as
// tensor.addto8_gbps.
func AddTo8(dst []float32, s0, s1, s2, s3, s4, s5, s6, s7 []float32) {
	s0 = s0[:len(dst)]
	s1 = s1[:len(dst)]
	s2 = s2[:len(dst)]
	s3 = s3[:len(dst)]
	s4 = s4[:len(dst)]
	s5 = s5[:len(dst)]
	s6 = s6[:len(dst)]
	s7 = s7[:len(dst)]
	if simdActive() {
		addTo8SIMD(dst, s0, s1, s2, s3, s4, s5, s6, s7)
		return
	}
	for j := range dst {
		v := dst[j]
		v += s0[j]
		v += s1[j]
		v += s2[j]
		v += s3[j]
		v += s4[j]
		v += s5[j]
		v += s6[j]
		v += s7[j]
		dst[j] = v
	}
}
