package tensor

import (
	"fmt"
	"math"
)

// Panel layout parameters: the depth of one k-tile and the two vector strip
// widths. A 256 × 16 strip is 16 KiB, so the strip plus the four active rows
// of the left operand stay L1-resident while the micro-kernels sweep it.
const (
	panelKC = 256
	panelNR = 16
)

// Panel is a constant right-hand GEMM operand — a layer's [Rows x Cols]
// weight matrix — stored once, in the order the fully-connected kernels
// stream it, so a forward pass never re-lays-out weights.
//
// The matrix is cut into k-tiles of panelKC rows (the last may be shorter).
// Inside a tile the columns are cut into strips: 16 wide while 16 columns
// remain, then at most one 8-wide strip, then a tail of fewer than 8 columns.
// A strip of width w holds its tile's rows back to back, w floats per row, so
// the element at (r, c) of tile rows [k0, k0+kc) and strip columns [j, j+w)
// lives at
//
//	k0*Cols + j*kc + (r-k0)*w + (c-j)
//
// Tiles, and strips inside a tile, follow each other in memory in the order
// FCInto visits them: one forward pass is one sequential read of the panel.
// There is no padding — a panel is exactly Rows*Cols floats, the same
// footprint as the row-major tensor it replaces — and it is immutable once
// its rows are set, so any number of goroutines may run FCInto over it
// without synchronization.
type Panel struct {
	Rows, Cols int
	data       []float32
}

// newPanel allocates a zeroed [rows x cols] panel.
func newPanel(rows, cols int) *Panel {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid panel shape [%d x %d]", rows, cols))
	}
	return &Panel{Rows: rows, Cols: cols, data: make([]float32, rows*cols)}
}

// PackPanel lays a row-major tensor out as a panel.
func PackPanel(t *Tensor) *Panel {
	p := newPanel(t.Rows, t.Cols)
	for r := 0; r < t.Rows; r++ {
		p.setRow(r, t.Row(r))
	}
	return p
}

// Unpack returns the panel's contents as a new row-major tensor.
// PackPanel(t).Unpack() reproduces t exactly.
func (p *Panel) Unpack() *Tensor {
	t := New(p.Rows, p.Cols)
	for r := 0; r < p.Rows; r++ {
		dst := t.Row(r)
		p.rowSegments(r, func(j int, seg []float32) { copy(dst[j:], seg) })
	}
	return t
}

// setRow overwrites logical row r with src (Cols floats, row-major order).
func (p *Panel) setRow(r int, src []float32) {
	if len(src) != p.Cols {
		panic(fmt.Sprintf("tensor: Panel.setRow got %d values for %d columns", len(src), p.Cols))
	}
	p.rowSegments(r, func(j int, seg []float32) { copy(seg, src[j:]) })
}

// rowSegments visits the pieces of logical row r, one per strip: seg aliases
// the panel's storage for columns [j, j+len(seg)).
func (p *Panel) rowSegments(r int, visit func(j int, seg []float32)) {
	k0 := r - r%panelKC
	kc := min(panelKC, p.Rows-k0)
	tile := p.data[k0*p.Cols : (k0+kc)*p.Cols]
	for j := 0; j < p.Cols; {
		w := stripWidth(p.Cols - j)
		at := j*kc + (r-k0)*w
		visit(j, tile[at:at+w])
		j += w
	}
}

// stripWidth returns the width of the next strip when rem columns remain.
func stripWidth(rem int) int {
	switch {
	case rem >= panelNR:
		return panelNR
	case rem >= 8:
		return 8
	default:
		return rem
	}
}

// FCInto computes one fully-connected layer in a single pass over the packed
// weights: dst = a × w + bias, followed by ReLU when relu is set. dst must
// have shape [a.Rows x w.Cols], is fully overwritten, and must not alias a.
// It returns dst.
//
// Every output strip starts from its bias values, accumulates the k-tiles in
// order, and is clamped as the last tile is stored; nothing is copied or
// re-packed per call. Each output element receives its contributions in
// strictly increasing k order on both backends. The scalar backend rounds the
// multiply and the add separately and skips exact-zero elements of a, so it
// is bit-identical to a bias row plus the naive reference kernel; the vector
// backends fuse them, as backend.go states (tolerance tier against scalar).
// The ReLU is the one documented at ReLU on both. FCInto is the package's
// only GEMM: MatMul* pack their right-hand operand per call and run it.
func FCInto(dst, a *Tensor, w *Panel, bias *Tensor, relu bool) *Tensor {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: FCInto inner dim mismatch [%dx%d]·[%dx%d]", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if bias.Rows != 1 || bias.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: bias shape [%dx%d] incompatible with output cols %d", bias.Rows, bias.Cols, w.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: FCInto dst shape [%dx%d], want [%dx%d]", dst.Rows, dst.Cols, a.Rows, w.Cols))
	}
	if simdActive() {
		fcSIMD(dst, a, w, bias.Data, relu)
	} else {
		fcScalar(dst, a, w, bias.Data, relu)
	}
	return dst
}

// fcScalarRows is how many rows of a fcScalar sweeps against a strip before
// moving to the next one: enough that a k-tile wider than L2 (RMC3's 256×2560
// first layer is 2.6 MB) is streamed once per block rather than once per row,
// few enough that the block's nonzero lists stay in L1 beside the strip.
const fcScalarRows = 8

// fcScalar is the scalar backend's panel kernel. For each (k-tile, block of
// rows) it compresses every row's nonzero elements once — after a ReLU layer
// about half are exact zeros — and then sweeps the tile's strips with a
// branch-free eight-accumulator loop over those lists: the zero-skip of the
// reference kernel without an unpredictable branch per element.
func fcScalar(out, a *Tensor, w *Panel, bias []float32, relu bool) {
	m, kDim, n := a.Rows, a.Cols, w.Cols
	var (
		nzK [fcScalarRows][panelKC]uint8 // tile-relative k of each nonzero
		nzV [fcScalarRows][panelKC]float32
		nzN [fcScalarRows]int
	)
	for k0 := 0; k0 < kDim; k0 += panelKC {
		kc := min(panelKC, kDim-k0)
		tile := w.data[k0*n : (k0+kc)*n]
		for i0 := 0; i0 < m; i0 += fcScalarRows {
			rows := min(fcScalarRows, m-i0)
			for r := 0; r < rows; r++ {
				if k0 == 0 {
					copy(out.Row(i0+r), bias)
				}
				ks, vs, cnt := &nzK[r], &nzV[r], 0
				for k, av := range a.Row(i0 + r)[k0 : k0+kc] {
					// Store always, advance only past a nonzero: cnt <= k, so
					// the store is in range and the loop has no data branch.
					ks[cnt], vs[cnt] = uint8(k), av
					if av != 0 {
						cnt++
					}
				}
				nzN[r] = cnt
			}
			for j := 0; j < n; {
				wd := stripWidth(n - j)
				strip := tile[j*kc : (j+wd)*kc]
				for r := 0; r < rows; r++ {
					o := out.Row(i0 + r)[j : j+wd]
					ks, vs := nzK[r][:nzN[r]], nzV[r][:nzN[r]]
					switch wd {
					case panelNR:
						panelAcc8(o, strip, panelNR, ks, vs)
						panelAcc8(o[8:], strip[8:], panelNR, ks, vs)
					case 8:
						panelAcc8(o, strip, 8, ks, vs)
					default:
						for c := range o {
							v := o[c]
							for t, k := range ks {
								v += float32(vs[t] * strip[int(k)*wd+c])
							}
							o[c] = v
						}
					}
				}
				j += wd
			}
			if relu && k0+kc == kDim {
				reluScalar(out.Data[i0*n : (i0+rows)*n])
			}
		}
	}
}

// panelAcc8 accumulates eight output columns over one k-tile: for each
// nonzero a element (tile-relative row ks[t], value vs[t]) it adds
// vs[t]·strip[ks[t]*ld : +8] into o, in list (increasing k) order. The eight
// partial sums live in registers, so the loop does no stores and no branches.
func panelAcc8(o, strip []float32, ld int, ks []uint8, vs []float32) {
	o = o[:8:8]
	vs = vs[:len(ks)]
	c0, c1, c2, c3 := o[0], o[1], o[2], o[3]
	c4, c5, c6, c7 := o[4], o[5], o[6], o[7]
	for t, k := range ks {
		av := vs[t]
		at := int(k) * ld
		bs := strip[at : at+8 : at+8]
		c0 += float32(av * bs[0])
		c1 += float32(av * bs[1])
		c2 += float32(av * bs[2])
		c3 += float32(av * bs[3])
		c4 += float32(av * bs[4])
		c5 += float32(av * bs[5])
		c6 += float32(av * bs[6])
		c7 += float32(av * bs[7])
	}
	o[0], o[1], o[2], o[3] = c0, c1, c2, c3
	o[4], o[5], o[6], o[7] = c4, c5, c6, c7
}

// ReLU clamps x in place: every element that compares below zero becomes +0
// and every other bit pattern is left untouched — -0 stays -0, NaNs keep
// sign and payload, +Inf stays +Inf — exactly what the loop
// `if v < 0 { v = 0 }` produces. Both backends are branch-free (a ReLU input
// is negative about every other element, which a branch mispredicts): AVX2
// takes max(0, v) with v as the instruction's second source, the operand
// VMAXPS returns for NaNs and for equal zeros; scalar masks the bit pattern.
func ReLU(x []float32) {
	if simdActive() {
		reluSIMD(x)
		return
	}
	reluScalar(x)
}

// reluScalar is ReLU on the float's bit pattern. v < 0 holds exactly for the
// patterns 0x80000001 (smallest negative denormal) through 0xff800000 (-Inf):
// below them sit -0 and every non-negative value, above them the NaNs with
// the sign bit set. After subtracting 0x80000001 that range is
// [0, 0x7f7fffff], and one widened subtraction turns "inside it" into a
// borrow bit that builds the mask.
func reluScalar(x []float32) {
	for i, v := range x {
		b := math.Float32bits(v)
		neg := (uint64(b-0x80000001) - 0x7f800000) >> 63 // 1 iff v < 0
		x[i] = math.Float32frombits(b & (uint32(neg) - 1))
	}
}
