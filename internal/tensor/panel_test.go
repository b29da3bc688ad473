package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// Differential coverage of the packed fully-connected path. Two oracles, one
// per tier: under the scalar backend FCInto must reproduce a bias row plus
// the naive reference kernel plus the reference ReLU bit for bit; under each
// vector backend it must reproduce fmaRef — the contract backend.go states,
// evaluated with exact roundings — plus the reference ReLU bit for bit. A
// third oracle holds the vector tier together: AVX2 and AVX512 must produce
// the same bits on the whole GEMM family, special values included. The test
// names carry "Panel"/"ReLU" plus "Backend"/"SIMD" so every CI kernel-backend
// leg selects them.

// refReLU is the historical activation loop, the bit contract ReLU keeps.
func refReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// sameBits compares bit patterns, so -0 vs +0 and NaN payloads count.
func sameBits(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s[%d]: bits %#08x (%v), want %#08x (%v)", name, i, g, got[i], w, want[i])
		}
	}
}

// refFC is the scalar tier's oracle: bias row, naive kernel, reference ReLU.
func refFC(a, w, bias *Tensor, relu bool) *Tensor {
	out := New(a.Rows, w.Cols)
	for i := 0; i < out.Rows; i++ {
		copy(out.Row(i), bias.Data)
	}
	refMatMulAccum(out, a, w)
	if relu {
		refReLU(out.Data)
	}
	return out
}

// fmaRef is the vector tier's oracle, the GEMM contract backend.go states:
// each output element starts from its bias; columns [0, n&^7) take an exactly
// rounded fma(a[i,k], w[k,j], acc) per k in increasing order, the tail
// columns a rounded product and then a rounded add; no element of a is
// skipped. Then the reference ReLU. Operands must be finite. swapK exchanges
// the first two k steps and fuseTail gives the tail the fma too: the two
// mistakes the oracle must be able to see.
func fmaRef(a, w, bias *Tensor, relu bool) *Tensor {
	return fmaRefVariant(a, w, bias, relu, false, false)
}

func fmaRefVariant(a, w, bias *Tensor, relu, swapK, fuseTail bool) *Tensor {
	m, kDim, n := a.Rows, a.Cols, w.Cols
	out := New(m, n)
	for i := 0; i < m; i++ {
		acc := out.Row(i)
		copy(acc, bias.Data)
		for s := 0; s < kDim; s++ { // each element's chain in k order, a row of w at a time
			k := s
			if swapK && kDim > 1 && s < 2 {
				k = 1 - s
			}
			av := a.At(i, k)
			for j, bv := range w.Row(k) {
				if j < n&^7 || fuseTail {
					acc[j] = fma32(av, bv, acc[j])
				} else {
					acc[j] += float32(av * bv)
				}
			}
		}
	}
	if relu {
		refReLU(out.Data)
	}
	return out
}

// fma32 returns a·b + c rounded once to float32. The float64 product of two
// float32s is exact, so math.FMA's result is the exact value rounded once to
// float64; rounding that to float32 is a second rounding, which can differ
// from a single one only when the float64 result lies exactly halfway between
// two float32s — in the normal range, when its 29 mantissa bits below float32
// precision read 100…0. There, and below the normal range, math/big settles it.
func fma32(a, b, c float32) float32 {
	r := math.FMA(float64(a), float64(b), float64(c))
	if math.Float64bits(r)&(1<<29-1) != 1<<28 && (math.Abs(r) >= 0x1p-126 || r == 0) {
		return float32(r)
	}
	exact := new(big.Float).SetPrec(1024).SetFloat64(float64(a))
	exact.Mul(exact, big.NewFloat(float64(b)))
	exact.Add(exact, big.NewFloat(float64(c)))
	f, _ := exact.Float32()
	return f
}

// Every m crosses the 4-row block and the AVX512 kernel's 8-row block (7, 8,
// 9, 17), every k the 256-deep tile, every n the 16-wide strip, the 8-wide
// strip, the under-8 tail and the 32-column group of two strips (alone,
// twice, and followed by a 16-strip, an 8-strip and a tail).
var (
	panelMs = []int{1, 3, 4, 5, 7, 8, 9, 16, 17, 255}
	panelKs = []int{1, 255, 256, 257, 2560}
	panelNs = []int{1, 7, 8, 9, 16, 24, 31, 32, 33, 36, 45, 48, 63, 64, 77, 512}
)

// forEachPanelShape's product limits. The two per-tier oracles take wholeGrid;
// a -short run stops at shortGrid; the tests that repeat the grid per backend
// pair or per operand placement take a multiple of shortGrid — every tile
// edge already occurs in a product under it.
const (
	wholeGrid = math.MaxInt
	shortGrid = 1 << 22
)

// forEachPanelShape runs f over the shape grid, products m·k·n above limit
// left out (above shortGrid in -short runs), with a ReLU-sparse left operand
// (about half exact zeros, some of them -0). f owns its operands.
func forEachPanelShape(t *testing.T, seed int64, limit int, f func(a, w, bias *Tensor)) {
	t.Helper()
	if testing.Short() {
		limit = min(limit, shortGrid)
	}
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Float32frombits(0x80000000)
	for _, m := range panelMs {
		for _, k := range panelKs {
			for _, n := range panelNs {
				if m*k*n > limit {
					continue
				}
				a := RandUniform(rng, m, k, 1)
				for i := range a.Data {
					switch rng.Intn(8) {
					case 0, 1, 2:
						a.Data[i] = 0
					case 3:
						a.Data[i] = negZero
					}
				}
				f(a, RandUniform(rng, k, n, 1), RandUniform(rng, 1, n, 1))
			}
		}
	}
}

func TestPanelFCScalarBackendBitIdenticalToReference(t *testing.T) {
	pinBackend(t, Scalar)
	forEachPanelShape(t, 51, wholeGrid, func(a, w, bias *Tensor) {
		p := PackPanel(w)
		for _, relu := range []bool{false, true} {
			dst := New(a.Rows, w.Cols)
			dst.Fill(42) // FCInto must overwrite, not accumulate
			sameBits(t, "FCInto(scalar)", FCInto(dst, a, p, bias, relu).Data, refFC(a, w, bias, relu).Data)
		}
	})
}

// The reference is computed once per shape and held against every vector
// backend, with and without the fused ReLU.
func TestPanelFCSIMDBitIdenticalToFMAReference(t *testing.T) {
	pinBackend(t, AVX2) // skips when there is no vector backend
	forEachPanelShape(t, 52, wholeGrid, func(a, w, bias *Tensor) {
		p := PackPanel(w)
		want := fmaRef(a, w, bias, false)
		wantReLU := want.Clone()
		refReLU(wantReLU.Data)
		for _, bk := range Backends()[1:] {
			pinBackend(t, bk)
			for _, relu := range []bool{false, true} {
				dst := New(a.Rows, w.Cols)
				dst.Fill(42)
				FCInto(dst, a, p, bias, relu)
				if relu {
					sameBits(t, "FCInto+ReLU("+bk.String()+")", dst.Data, wantReLU.Data)
				} else {
					sameBits(t, "FCInto("+bk.String()+")", dst.Data, want.Data)
				}
			}
		}
	})
}

// The oracle is worth holding the vector tier to only if it tells the contract
// from near misses: swapping two k steps, or fusing the tail's multiply and
// add, must each disagree with FCInto somewhere; and fma32 must round once
// where rounding to float64 first lands exactly on a float32 midpoint.
func TestPanelFMAReferenceCatchesNearMissesSIMD(t *testing.T) {
	pinBackend(t, AVX2)
	// 1 + 2^-23 + (2^-24 - 2^-70): just below the midpoint that float64 rounds
	// it onto, and ties-to-even would then round up.
	a, b, c := float32(math.Ldexp(1+0x1p-23, -24)), float32(1-0x1p-23), float32(1+0x1p-23)
	if got := fma32(a, b, c); got != c {
		t.Fatalf("fma32 midpoint case = %#08x, want %#08x", math.Float32bits(got), math.Float32bits(c))
	}
	for _, mistake := range []struct {
		name            string
		swapK, fuseTail bool
	}{{"swapped k steps", true, false}, {"fused tail", false, true}} {
		caught := false
		forEachPanelShape(t, 58, 1<<16, func(a, w, bias *Tensor) {
			got := FCInto(New(a.Rows, w.Cols), a, PackPanel(w), bias, false)
			want := fmaRefVariant(a, w, bias, false, mistake.swapK, mistake.fuseTail)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					caught = true
				}
			}
		})
		if !caught {
			t.Errorf("an oracle with %s agrees with FCInto on every shape: it cannot see that mistake", mistake.name)
		}
	}
}

// sprinkleSpecials overwrites about one element in sixteen of x with a value
// from reluSpecials: signed zeros, NaNs with payloads, infinities, denormals.
func sprinkleSpecials(rng *rand.Rand, x []float32) {
	for i := rng.Intn(16); i < len(x); i += 1 + rng.Intn(31) {
		x[i] = math.Float32frombits(reluSpecials[rng.Intn(len(reluSpecials))])
	}
}

// The vector tier is one tier: every GEMM-family entry point must produce the
// same bits under AVX2 and AVX512 at every tile edge, special values in all
// three operands included — which NaN an fma of two NaNs returns depends on
// operand order, so even that is pinned. The product limit leaves out only the
// few largest shapes: every tile edge, ten k-tiles deep, occurs under it.
// Skipped, not passed vacuously, where AVX512 cannot run.
func TestPanelGEMMFamilyBitIdenticalAcrossVectorBackends(t *testing.T) {
	pinBackend(t, AVX512)
	rng := rand.New(rand.NewSource(56))
	forEachPanelShape(t, 55, 4*shortGrid, func(a, w, bias *Tensor) {
		for _, specials := range []bool{false, true} {
			if specials {
				sprinkleSpecials(rng, a.Data)
				sprinkleSpecials(rng, w.Data)
				sprinkleSpecials(rng, bias.Data)
			}
			p := PackPanel(w)
			run := func(bk Backend) [4]*Tensor {
				if err := SetBackend(bk); err != nil {
					t.Fatal(err)
				}
				var out [4]*Tensor
				for i := range out {
					out[i] = New(a.Rows, w.Cols)
					out[i].Fill(42)
				}
				FCInto(out[0], a, p, bias, false)
				FCInto(out[1], a, p, bias, true)
				MatMulInto(out[2], a, w)
				MatMulAddBiasInto(out[3], a, w, bias)
				return out
			}
			narrow, wide := run(AVX2), run(AVX512)
			for i, name := range []string{"FCInto", "FCInto+ReLU", "MatMulInto", "MatMulAddBiasInto"} {
				sameBits(t, name+"(avx512 vs avx2)", wide[i].Data, narrow[i].Data)
			}
		}
	})
}

// guarded returns a length-n slice with pad sentinel floats in front of it
// and, unless flush, behind it (flush: the slice ends where its array ends),
// plus a check that every sentinel is intact. The sentinel is a NaN whose
// payload is the operand's own (its name's first byte): a kernel that strays
// into one operand's guard and stores what it computed into another's leaves
// the wrong payload there, not a copy of the sentinel.
func guarded(t *testing.T, name string, n int, flush bool) (mid []float32, check func()) {
	sentinelBits := 0x7fc5e100 | uint32(name[0])
	const pad = 64 // four ZMM stores
	back := pad
	if flush {
		back = 0
	}
	whole := make([]float32, pad+n+back)
	front, behind := whole[:pad], whole[pad+n:]
	for _, guard := range [][]float32{front, behind} {
		for i := range guard {
			guard[i] = math.Float32frombits(sentinelBits)
		}
	}
	return whole[pad : pad+n : pad+n], func() {
		t.Helper()
		for _, guard := range []struct {
			side   string
			floats []float32
		}{{"front", front}, {"back", behind}} {
			for i, v := range guard.floats {
				if math.Float32bits(v) != sentinelBits {
					t.Fatalf("%s: %s sentinel %d overwritten with %v", name, guard.side, i, v)
				}
			}
		}
	}
}

// A 64-byte store one column or one row off lands in a neighbour and nothing
// else notices: run FCInto and MatMulInto with dst, a and the panel / b each
// sliced from the middle of a sentinel-filled array (and once flush against
// the end of it) and require every sentinel intact and dst fully overwritten
// with the plain call's bits.
func TestPanelNoWriteOutsideBlockAllBackends(t *testing.T) {
	for _, bk := range Backends() {
		pinBackend(t, bk)
		forEachPanelShape(t, 57, shortGrid/4, func(a, w, bias *Tensor) {
			m, k, n := a.Rows, a.Cols, w.Cols
			wantFC := FCInto(New(m, n), a, PackPanel(w), bias, true)
			wantMM := MatMulInto(New(m, n), a, w)
			for _, flush := range []bool{false, true} {
				dstData, checkDst := guarded(t, "dst", m*n, flush)
				aData, checkA := guarded(t, "a", m*k, flush)
				wData, checkW := guarded(t, "w", k*n, flush)
				pData, checkP := guarded(t, "panel", k*n, flush)
				copy(aData, a.Data)
				copy(wData, w.Data)
				ga, gw := FromSlice(m, k, aData), FromSlice(k, n, wData)
				gp := &Panel{Rows: k, Cols: n, data: pData}
				for r := 0; r < k; r++ {
					gp.setRow(r, w.Row(r))
				}
				dst := FromSlice(m, n, dstData)
				for _, call := range []struct {
					name string
					run  func()
					want *Tensor
				}{
					{"FCInto", func() { FCInto(dst, ga, gp, bias, true) }, wantFC},
					{"MatMulInto", func() { MatMulInto(dst, ga, gw) }, wantMM},
				} {
					dst.Fill(42)
					call.run()
					sameBits(t, call.name+"("+bk.String()+", guarded)", dst.Data, call.want.Data)
					checkDst()
					checkA()
					checkW()
					checkP()
				}
			}
		})
	}
}

// reluSpecials are the inputs whose handling distinguishes a correct ReLU
// from a plausible one: signed zeros, NaNs of both signs, quiet and
// signalling, with payloads, infinities, the denormal range and the extremes.
var reluSpecials = []uint32{
	0x00000000, 0x80000000, // +0, -0
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffc12345, // quiet NaNs, payloads
	0x7f800001, 0xff800001, 0x7fa00000, 0xffa54321, // signalling NaNs
	0x7f800000, 0xff800000, // +Inf, -Inf
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x00800000, 0x80800000, // smallest normals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x3f800000, 0xbf800000, // ±1
}

func TestReLUBitContractBothBackends(t *testing.T) {
	for _, bk := range Backends() {
		pinBackend(t, bk)
		// Specials at every lane and in every loop of the vector kernel (32-
		// and 8-element bodies, scalar tail).
		for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 71} {
			for shift := 0; shift < len(reluSpecials); shift++ {
				x := make([]float32, n)
				for i := range x {
					x[i] = math.Float32frombits(reluSpecials[(i+shift)%len(reluSpecials)])
				}
				want := append([]float32(nil), x...)
				refReLU(want)
				ReLU(x)
				sameBits(t, "ReLU("+bk.String()+")", x, want)
			}
		}
		// Every sign/exponent/high-mantissa prefix against the low halves
		// that sit on a boundary.
		lows := []uint32{0x0000, 0x0001, 0x7fff, 0x8000, 0xfffe, 0xffff, 0x1234, 0xedcb}
		x := make([]float32, 0, len(lows)<<16)
		for hi := uint32(0); hi < 1<<16; hi++ {
			for _, lo := range lows {
				x = append(x, math.Float32frombits(hi<<16|lo))
			}
		}
		want := append([]float32(nil), x...)
		refReLU(want)
		ReLU(x)
		sameBits(t, "ReLU sweep("+bk.String()+")", x, want)
	}
}

// The fused epilogue (the clamp in the last k-tile's store, and the Go tail's)
// must keep the same bits as the standalone ReLU: drive special values
// through the accumulators by making them the bias of an all-zero product.
func TestPanelFCReLUEpilogueBitContractBothBackends(t *testing.T) {
	for _, bk := range Backends() {
		pinBackend(t, bk)
		for _, n := range []int{5, 8, 16, 29} { // tail only, 8-strip, 16-strip, all three
			for _, m := range []int{1, 4, 6} {
				for _, k := range []int{3, 300} {
					a := New(m, k) // zeros: out = bias + 0·w
					w := New(k, n)
					w.Fill(0.5)
					bias := New(1, n)
					for shift := 0; shift < len(reluSpecials); shift += 5 {
						for j := range bias.Data {
							bias.Data[j] = math.Float32frombits(reluSpecials[(j+shift)%len(reluSpecials)])
						}
						want := MatMulAddBias(a, w, bias)
						refReLU(want.Data)
						got := FCInto(New(m, n), a, PackPanel(w), bias, true)
						sameBits(t, "FCInto epilogue("+bk.String()+")", got.Data, want.Data)
					}
				}
			}
		}
	}
}

func TestPanelPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, k := range []int{1, 2, 255, 256, 257, 513} {
		for _, n := range panelNs {
			w := RandUniform(rng, k, n, 1)
			p := PackPanel(w)
			if len(p.data) != k*n {
				t.Fatalf("panel [%dx%d] holds %d floats, want exactly %d (no padding)", k, n, len(p.data), k*n)
			}
			sameBits(t, "Unpack(Pack)", p.Unpack().Data, w.Data)
			// The documented address of (r, c).
			for trial := 0; trial < 50; trial++ {
				r, c := rng.Intn(k), rng.Intn(n)
				k0 := r - r%panelKC
				kc := min(panelKC, k-k0)
				j, wd := 0, stripWidth(n)
				for c >= j+wd {
					j += wd
					wd = stripWidth(n - j)
				}
				if got := p.data[k0*n+j*kc+(r-k0)*wd+(c-j)]; got != w.At(r, c) {
					t.Fatalf("panel [%dx%d] (%d,%d) = %v, want %v", k, n, r, c, got, w.At(r, c))
				}
			}
		}
	}
}

// XavierPanel must consume the generator exactly as XavierUniform does, so a
// seed yields the same model whether or not its weights are packed.
func TestXavierPanelMatchesXavierUniformStream(t *testing.T) {
	for _, s := range []struct{ in, out int }{{1, 1}, {13, 7}, {300, 40}, {256, 16}} {
		r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		sameBits(t, "XavierPanel", XavierPanel(r1, s.in, s.out).Unpack().Data, XavierUniform(r2, s.in, s.out).Data)
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("[%dx%d]: generators diverged after the draw (%d vs %d)", s.in, s.out, a, b)
		}
	}
}

func TestPanelFCShapeChecks(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	p := newPanel(4, 3)
	mustPanic("inner dim", func() { FCInto(New(2, 3), New(2, 5), p, New(1, 3), false) })
	mustPanic("bias", func() { FCInto(New(2, 3), New(2, 4), p, New(1, 2), false) })
	mustPanic("dst", func() { FCInto(New(2, 4), New(2, 4), p, New(1, 3), false) })
	mustPanic("setRow", func() { p.setRow(0, make([]float32, 2)) })
	mustPanic("newPanel", func() { newPanel(0, 3) })
}

// FuzzPackedFCVsReference drives FCInto with fuzzer-chosen shapes (m crosses
// two of the widest row blocks, k the 256-deep tile, n every strip width and
// two 32-column groups) and operands against all three oracles: the naive
// reference under scalar, fmaRef under each vector backend, and the vector
// backends against each other, each bit for bit. (The scalar-vs-vector
// tolerance is FuzzSIMDMatMulVsScalar's business; its k-linear bound does not
// hold for the long same-sign sums a fuzzer builds at k in the hundreds.)
func FuzzPackedFCVsReference(f *testing.F) {
	f.Add([]byte{3, 4, 5, 1}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 16, 16, 0}, make([]byte, 64))
	f.Add([]byte{4, 255, 17, 1}, []byte{0x80, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{9, 3, 40, 1}, []byte{0xff, 0x7f, 0xff, 0xff, 0x7f, 0x80, 0, 1})
	f.Add([]byte{5, 129, 7, 1}, []byte{0xbf, 0x80, 0, 0, 0x3f, 0x80, 0, 0})
	f.Add([]byte{24, 130, 76, 1}, []byte{0x3f, 0x80, 0, 0, 0xbf, 0x80, 0, 0, 0x40, 0x49, 0x0f, 0xdb})
	f.Add([]byte{13, 3, 32, 0}, []byte{0x3e, 0x99, 0x99, 0x9a, 0x80, 0, 0, 0, 0xc0, 0x20, 0, 0})
	f.Fuzz(func(t *testing.T, dims, data []byte) {
		if len(dims) < 4 {
			t.Skip()
		}
		m := 1 + int(dims[0])%30
		k := 1 + (int(dims[1])*2+int(dims[3])/2)%520
		n := 1 + int(dims[2])%80
		relu := dims[3]&1 == 1
		vals := make([]float32, m*k+k*n+n)
		if len(data) < 4*len(vals) {
			// Tile the input so large shapes are not mostly zeros.
			for len(data) > 0 && len(data) < 4*len(vals) {
				data = append(data, data...)
			}
		}
		sanitize(data, vals)
		a := FromSlice(m, k, vals[:m*k])
		w := FromSlice(k, n, vals[m*k:m*k+k*n])
		bias := FromSlice(1, n, vals[m*k+k*n:])
		p := PackPanel(w)
		sameBits(t, "Unpack(Pack)(fuzz)", p.Unpack().Data, w.Data)

		prev := ActiveBackend()
		defer SetBackend(prev)
		SetBackend(Scalar)
		sameBits(t, "FCInto(scalar,fuzz)", FCInto(New(m, n), a, p, bias, relu).Data, refFC(a, w, bias, relu).Data)
		var narrower *Tensor
		for _, bk := range Backends()[1:] {
			SetBackend(bk)
			simd := FCInto(New(m, n), a, p, bias, relu)
			sameBits(t, "FCInto("+bk.String()+",fuzz)", simd.Data, fmaRef(a, w, bias, relu).Data)
			if narrower != nil {
				sameBits(t, "FCInto("+bk.String()+" vs the narrower vector backend,fuzz)", simd.Data, narrower.Data)
			}
			narrower = simd
		}
	})
}
