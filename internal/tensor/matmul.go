package tensor

import "fmt"

// Kernel blocking parameters. The GEMM kernel holds an nrBlock-wide strip of
// one output row in registers while sweeping a kcBlock-deep tile of the
// shared dimension, so the inner loop performs no stores and the b strip it
// streams (kcBlock x nrBlock floats = 16 KiB) stays L1-resident across the
// batch rows. Zero elements of a are skipped exactly like the historical
// kernel — after a ReLU layer roughly half the activations are exact zeros,
// and skipping them halves the work of every hidden fully-connected layer.
//
// Every kernel here accumulates each output element's contributions in
// strictly increasing k order, one multiply-add per nonzero k — the same
// floating-point evaluation order (and the same zero-skip) as the naive
// reference kernel below. That keeps the optimized and reference kernels
// bit-for-bit identical, which the equivalence tests pin.
const (
	nrBlock = 8
	kcBlock = 512
)

// MatMul returns a × b for a of shape [m x k] and b of shape [k x n].
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dim mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	matMulAccum(out, a, b)
	return out
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
	dst.Zero()
	matMulAccum(dst, a, b)
	return dst
}

// MatMulAddBias returns a × w + bias, where bias is a [1 x n] row vector
// broadcast over the rows of the product. This fuses the two steps of a
// fully-connected layer, the dominant dense operator in the model zoo.
func MatMulAddBias(a, w, bias *Tensor) *Tensor {
	checkMatMulBias(a, w, bias)
	out := New(a.Rows, w.Cols)
	for i := 0; i < out.Rows; i++ {
		copy(out.Row(i), bias.Data)
	}
	matMulAccum(out, a, w)
	return out
}

// MatMulAddBiasInto computes dst = a × w + bias without allocating: dst must
// have shape [a.Rows x w.Cols] and must not alias a, w, or bias. It returns
// dst.
func MatMulAddBiasInto(dst, a, w, bias *Tensor) *Tensor {
	checkMatMulBias(a, w, bias)
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddBiasInto dst shape [%dx%d], want [%dx%d]", dst.Rows, dst.Cols, a.Rows, w.Cols))
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), bias.Data)
	}
	matMulAccum(dst, a, w)
	return dst
}

func checkMatMulBias(a, w, bias *Tensor) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddBias inner dim mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if bias.Rows != 1 || bias.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: bias shape [%dx%d] incompatible with output cols %d", bias.Rows, bias.Cols, w.Cols))
	}
}

// rowChunk bounds the per-call stack footprint of the row classifier.
const rowChunk = 1024

// matMulAccum accumulates a × b into out (out += a·b), dispatching to the
// active backend: the scalar blocked kernel below (the bit-exact reference
// path) or the FMA micro-kernels in simd_amd64.s and simd512_amd64.s
// (tolerance tier — FMA and per-block chain interleaving change accumulation
// order; AVX2 and AVX512 agree bit for bit).
func matMulAccum(out, a, b *Tensor) {
	if simdActive() {
		matMulAccumSIMD(out, a, b)
		return
	}
	matMulAccumScalar(out, a, b)
}

// matMulAccumScalar accumulates a × b into out (out += a·b). It is the
// blocked, sparsity-adaptive scalar production kernel. For every (row,
// k-tile) pair it counts the row's exact zeros once and picks one of two
// paths:
//
//   - Dense rows take a branch-free register kernel: output columns in
//     strips of nrBlock held in registers across the tile, reading from a
//     contiguously packed copy of the b strip (the strided strip walk would
//     touch only half of every cache line; packing once per strip and
//     streaming the 16 KiB panel from L1 for every dense row halves
//     effective b traffic on the wide layers).
//
//   - Sparse rows — ReLU activations make roughly half the elements of
//     every hidden layer's input exactly zero — stream full rows of b per
//     nonzero element, the historical kernel's shape. Skipping a zero here
//     saves an entire 2·n-FLOP row update and the unpredictable branch
//     amortizes over n elements, which a per-strip skip cannot do.
//
// Both paths accumulate each output element's contributions in strictly
// increasing k order, one multiply-add per k, matching the naive reference
// kernel bit-for-bit for finite operands (the dense path multiplies by
// exact zeros instead of branching on them; x + 0·w == x in every rounding
// mode for finite w, signs included, because no partial sum here can be
// negative zero).
func matMulAccumScalar(out, a, b *Tensor) {
	m, kDim, n := a.Rows, a.Cols, b.Cols
	if n == 0 || kDim == 0 {
		return
	}
	var pack [kcBlock * nrBlock]float32
	var sparseRow [rowChunk]bool
	for i0 := 0; i0 < m; i0 += rowChunk {
		i1 := i0 + rowChunk
		if i1 > m {
			i1 = m
		}
		for k0 := 0; k0 < kDim; k0 += kcBlock {
			k1 := k0 + kcBlock
			if k1 > kDim {
				k1 = kDim
			}
			kc := k1 - k0

			// Classify each row's zero fraction over this tile. The
			// crossover sits where the sparse path's skipped work beats the
			// dense path's higher per-element throughput (~40% zeros).
			denseRows := 0
			for i := i0; i < i1; i++ {
				zeros := 0
				for _, av := range a.Row(i)[k0:k1] {
					if av == 0 {
						zeros++
					}
				}
				sparseRow[i-i0] = zeros*5 > kc*2
				if !sparseRow[i-i0] {
					denseRows++
				}
			}

			for i := i0; i < i1; i++ {
				if sparseRow[i-i0] {
					aRow, oRow := a.Row(i), out.Row(i)
					// Batch nonzero positions four at a time: axpy4 makes
					// one pass over the output for four b rows instead of
					// four, with the same per-element accumulation order.
					var ks [4]int
					cnt := 0
					for k := k0; k < k1; k++ {
						if aRow[k] != 0 {
							ks[cnt] = k
							cnt++
							if cnt == 4 {
								axpy4(oRow,
									aRow[ks[0]], b.Data[ks[0]*n:ks[0]*n+n],
									aRow[ks[1]], b.Data[ks[1]*n:ks[1]*n+n],
									aRow[ks[2]], b.Data[ks[2]*n:ks[2]*n+n],
									aRow[ks[3]], b.Data[ks[3]*n:ks[3]*n+n])
								cnt = 0
							}
						}
					}
					for c := 0; c < cnt; c++ {
						AXPY(aRow[ks[c]], b.Data[ks[c]*n:ks[c]*n+n], oRow)
					}
				}
			}
			if denseRows == 0 {
				continue
			}

			j := 0
			for ; j+nrBlock <= n; j += nrBlock {
				if denseRows >= packMinRows {
					p := 0
					for k := k0; k < k1; k++ {
						bs := b.Data[k*n+j : k*n+j+nrBlock : k*n+j+nrBlock]
						pack[p+0], pack[p+1], pack[p+2], pack[p+3] = bs[0], bs[1], bs[2], bs[3]
						pack[p+4], pack[p+5], pack[p+6], pack[p+7] = bs[4], bs[5], bs[6], bs[7]
						p += nrBlock
					}
					for i := i0; i < i1; i++ {
						if !sparseRow[i-i0] {
							kernel1x8(out, a.Row(i)[k0:k1], pack[:kc*nrBlock], i, j)
						}
					}
				} else {
					for i := i0; i < i1; i++ {
						if !sparseRow[i-i0] {
							kernel1x8strided(out, a, b, i, j, k0, k1)
						}
					}
				}
			}
			for ; j < n; j++ {
				for i := i0; i < i1; i++ {
					if !sparseRow[i-i0] {
						aRow := a.Row(i)
						// Accumulate from the current output value so the
						// summation order matches the reference exactly.
						c := out.Data[i*n+j]
						for k := k0; k < k1; k++ {
							c += aRow[k] * b.Data[k*n+j]
						}
						out.Data[i*n+j] = c
					}
				}
			}
		}
	}
}

// packMinRows is the dense-row count at which packing the b strip pays for
// itself: below it (single-row GRU steps, tiny batches) each packed element
// would be read at most a few times and the copy is pure overhead.
const packMinRows = 4

// kernel1x8 accumulates an 8-wide strip of output row i over one k-tile,
// reading a's tile slice (aTile = a.Row(i)[k0:k1]) against the packed b
// panel. The eight partial sums live in registers, so the loop does no
// stores and no branches.
func kernel1x8(out *Tensor, aTile, pack []float32, i, j int) {
	oRow := out.Row(i)[j : j+nrBlock : j+nrBlock]
	c0, c1, c2, c3 := oRow[0], oRow[1], oRow[2], oRow[3]
	c4, c5, c6, c7 := oRow[4], oRow[5], oRow[6], oRow[7]
	p := 0
	for _, av := range aTile {
		bs := pack[p : p+nrBlock : p+nrBlock]
		c0 += av * bs[0]
		c1 += av * bs[1]
		c2 += av * bs[2]
		c3 += av * bs[3]
		c4 += av * bs[4]
		c5 += av * bs[5]
		c6 += av * bs[6]
		c7 += av * bs[7]
		p += nrBlock
	}
	oRow[0], oRow[1], oRow[2], oRow[3] = c0, c1, c2, c3
	oRow[4], oRow[5], oRow[6], oRow[7] = c4, c5, c6, c7
}

// kernel1x8strided is kernel1x8 against unpacked b storage, used when too
// few dense rows share a strip to amortize packing.
func kernel1x8strided(out, a, b *Tensor, i, j, k0, k1 int) {
	n := b.Cols
	aRow := a.Row(i)
	oRow := out.Row(i)[j : j+nrBlock : j+nrBlock]
	c0, c1, c2, c3 := oRow[0], oRow[1], oRow[2], oRow[3]
	c4, c5, c6, c7 := oRow[4], oRow[5], oRow[6], oRow[7]
	for k := k0; k < k1; k++ {
		av := aRow[k]
		bs := b.Data[k*n+j : k*n+j+nrBlock : k*n+j+nrBlock]
		c0 += av * bs[0]
		c1 += av * bs[1]
		c2 += av * bs[2]
		c3 += av * bs[3]
		c4 += av * bs[4]
		c5 += av * bs[5]
		c6 += av * bs[6]
		c7 += av * bs[7]
	}
	oRow[0], oRow[1], oRow[2], oRow[3] = c0, c1, c2, c3
	oRow[4], oRow[5], oRow[6], oRow[7] = c4, c5, c6, c7
}

// refMatMulAccum is the naive rank-1-update reference kernel — the
// project's historical matmul loop, retained so the equivalence tests can
// pin the blocked kernel to it bit-for-bit. Its per-element accumulation
// order (increasing k, one multiply-add per nonzero a element) is the
// contract the optimized kernels preserve.
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

// refTransposeInto is the read-sequential reference transpose retained for
// the equivalence tests.
func refTransposeInto(dst, t *Tensor) {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		for c, v := range row {
			dst.Data[c*t.Rows+r] = v
		}
	}
}

// Transpose returns tᵀ. Degenerate (zero-element) tensors transpose to a
// zero-element tensor with swapped dimensions.
func Transpose(t *Tensor) *Tensor {
	out := &Tensor{Rows: t.Cols, Cols: t.Rows, Data: make([]float32, t.Rows*t.Cols)}
	TransposeInto(out, t)
	return out
}

// TransposeInto computes dst = tᵀ without allocating: dst must have shape
// [t.Cols x t.Rows] and must not alias t. The loop order is
// write-sequential — the output is filled row by row so stores stream
// through memory and only the gather loads stride — which matters because a
// transposed write pattern invalidates one cache line per element instead
// of one per line. It returns dst.
func TransposeInto(dst, t *Tensor) *Tensor {
	if dst.Rows != t.Cols || dst.Cols != t.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst shape [%dx%d], want [%dx%d]", dst.Rows, dst.Cols, t.Cols, t.Rows))
	}
	for c := 0; c < t.Cols; c++ {
		dstRow := dst.Data[c*t.Rows : c*t.Rows+t.Rows]
		for r := range dstRow {
			dstRow[r] = t.Data[r*t.Cols+c]
		}
	}
	return dst
}

// Dot returns the inner product of two equal-length vectors, dispatching to
// the active backend. The scalar path is unrolled by four with a single
// accumulator, preserving the sequential summation order of the naive loop
// (bit-identical results) while cutting loop overhead; the AVX2 path sums in
// four 8-wide accumulators (tolerance tier).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	if simdActive() {
		return dotSIMD(a, b)
	}
	var s float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
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

// axpy4 accumulates four scaled rows into y in one pass:
// y[j] += a0·x0[j]; y[j] += a1·x1[j]; … as four sequential adds per
// element, the same order as four separate AXPY calls, but with one
// load/store of y instead of four and four row streams in flight.
func axpy4(y []float32, a0 float32, x0 []float32, a1 float32, x1 []float32, a2 float32, x2 []float32, a3 float32, x3 []float32) {
	x0 = x0[:len(y)]
	x1 = x1[:len(y)]
	x2 = x2[:len(y)]
	x3 = x3[:len(y)]
	for j := range y {
		v := y[j]
		v += a0 * x0[j]
		v += a1 * x1[j]
		v += a2 * x2[j]
		v += a3 * x3[j]
		y[j] = v
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
