package tensor

// Assembly kernels (simd_amd64.s). None of them retain or escape their
// operand pointers.

//go:noescape
func axpyAVX2(alpha float32, x, y []float32)

//go:noescape
func addToAVX2(y, x []float32)

//go:noescape
func addTo8AVX2(dst *float32, n int, s0, s1, s2, s3, s4, s5, s6, s7 *float32)

//go:noescape
func poolSumAVX2(dst, table *float32, rows, stride, vecs int, lists [][]int) (off, pos int)

//go:noescape
func gemm4x16(c *float32, ldc int, a *float32, lda int, p *float32, ldp, kc int, init *float32, relu int)

//go:noescape
func gemm1x16(c *float32, a *float32, p *float32, ldp, kc int, init *float32, relu int)

//go:noescape
func gemm4x8(c *float32, ldc int, a *float32, lda int, p *float32, ldp, kc int, init *float32, relu int)

//go:noescape
func gemm1x8(c *float32, a *float32, p *float32, ldp, kc int, init *float32, relu int)

//go:noescape
func reluAVX2(x *float32, n int)

//go:noescape
func gemm8x32(c *float32, ldc int, a *float32, lda int, p0, p1 *float32, ldp, kc int, init *float32, relu int)

func axpySIMD(alpha float32, x, y []float32) { axpyAVX2(alpha, x, y) }

func addToSIMD(y, x []float32) { addToAVX2(y, x) }

// addTo8SIMD pools eight source rows into dst: the assembly kernel covers the
// 8-aligned prefix, the Go loop the (at most 7-element) tail, both in the
// scalar path's per-element source order — bit-identical across backends.
func addTo8SIMD(dst []float32, s0, s1, s2, s3, s4, s5, s6, s7 []float32) {
	n := len(dst)
	if m := n &^ 7; m > 0 {
		addTo8AVX2(&dst[0], m, &s0[0], &s1[0], &s2[0], &s3[0], &s4[0], &s5[0], &s6[0], &s7[0])
	}
	for j := n &^ 7; j < n; j++ {
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

// poolSumSIMD is PoolSum on the vector backend: the assembly kernel pools one
// column block per pass — 32 floats while that many columns remain, then a
// 16- and an 8-wide strip — and the scalar loop the (at most 7-column) tail.
// Every pass checks every index before the loads it makes, and the first pass
// is the one that finds a bad one.
func poolSumSIMD(dst, table []float32, dim int, lists [][]int) (list, pos int) {
	const header = 24 // bytes per []int header, the unit of the kernel's off
	col := 0
	for dim-col >= 8 {
		vecs := 1
		switch {
		case dim-col >= 32:
			vecs = 4
		case dim-col >= 16:
			vecs = 2
		}
		if off, pos := poolSumAVX2(&dst[col], &table[col], len(table)/dim, dim*4, vecs, lists); off >= 0 {
			return off / header, pos
		}
		col += 8 * vecs
	}
	if col < dim {
		return poolSumCols(dst, table, dim, col, lists)
	}
	return -1, -1
}

// reluSIMD is ReLU on the vector backend: the assembly kernel covers the
// 8-aligned prefix, the scalar bit mask the (at most 7-element) tail — the two
// agree bit for bit.
func reluSIMD(x []float32) {
	n := len(x) &^ 7
	if n > 0 {
		reluAVX2(&x[0], n)
	}
	reluScalar(x[n:])
}

// mrZMM is the AVX512 backend's register tile height: mrZMM rows of two
// adjacent strips.
const mrZMM = 8

// fcSIMD is the vector backend's only GEMM: a loop nest of k-tile, strip
// group and row block over the FMA micro-kernels, reading each strip where
// the Panel holds it. There is no sparse-row classification — at 8 lanes × 2
// FMA ports the dense kernel outruns a zero-skip even on ReLU-sparse
// activations, and multiplying by an exact zero is still exact. The first
// tile's kernels start from the bias strip instead of loading c, the last
// tile's clamp as they store. The under-8-column tail runs in Go with a
// separately rounded multiply and add per element.
//
// A strip group is one strip, or under AVX512 two adjacent 16-column strips
// (kc·16 floats apart in the Panel) that the mrZMM × 32 kernel covers
// together; the rows past the last full block of mrZMM fall through to the
// 256-bit kernels, one strip at a time. Every kernel applies the same
// fma(a, b, acc) chain per output element, so which one computes a block
// changes no bits.
func fcSIMD(out, a *Tensor, w *Panel, bias []float32, relu bool) {
	m, kDim, n := a.Rows, a.Cols, w.Cols
	zmm := zmmActive()
	for k0 := 0; k0 < kDim; k0 += panelKC {
		kc := min(panelKC, kDim-k0)
		first, last := k0 == 0, k0+kc == kDim
		clamp := 0
		if relu && last {
			clamp = 1
		}
		tile := w.data[k0*n : (k0+kc)*n]
		for j := 0; j < n; {
			wd := stripWidth(n - j)
			strips, i0 := 1, 0
			if zmm && n-j >= 2*panelNR {
				strips = 2
				var init *float32
				if first {
					init = &bias[j]
				}
				for ; i0+mrZMM <= m; i0 += mrZMM {
					gemm8x32(&out.Data[i0*n+j], n, &a.Data[i0*kDim+k0], kDim, &tile[j*kc], &tile[(j+panelNR)*kc], panelNR, kc, init, clamp)
				}
			}
			for s := 0; s < strips; s, j = s+1, j+wd {
				p := &tile[j*kc]
				var init *float32
				if first && wd >= 8 {
					init = &bias[j]
				}
				i := i0
				switch wd {
				case panelNR:
					for ; i+4 <= m; i += 4 {
						gemm4x16(&out.Data[i*n+j], n, &a.Data[i*kDim+k0], kDim, p, wd, kc, init, clamp)
					}
					for ; i < m; i++ {
						gemm1x16(&out.Data[i*n+j], &a.Data[i*kDim+k0], p, wd, kc, init, clamp)
					}
				case 8:
					for ; i+4 <= m; i += 4 {
						gemm4x8(&out.Data[i*n+j], n, &a.Data[i*kDim+k0], kDim, p, wd, kc, init, clamp)
					}
					for ; i < m; i++ {
						gemm1x8(&out.Data[i*n+j], &a.Data[i*kDim+k0], p, wd, kc, init, clamp)
					}
				default:
					strip := tile[j*kc : (j+wd)*kc]
					for ; i < m; i++ {
						aTile := a.Data[i*kDim+k0 : i*kDim+k0+kc]
						o := out.Data[i*n+j : i*n+j+wd]
						if first {
							copy(o, bias[j:])
						}
						for c := range o {
							v := o[c]
							for k, av := range aTile {
								v += av * strip[k*wd+c]
							}
							o[c] = v
						}
						if clamp != 0 {
							reluScalar(o)
						}
					}
				}
			}
		}
	}
}
