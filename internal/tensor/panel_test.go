package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential coverage of the packed fully-connected path. Two oracles, one
// per tier: under the scalar backend FCInto must reproduce a bias row plus
// the naive reference kernel plus the reference ReLU bit for bit; under AVX2
// it must reproduce the generic GEMM (MatMulAddBiasInto — the pre-panel FC
// path, same micro-kernels, same per-element k order) plus the reference ReLU
// bit for bit. The test names carry "Panel"/"ReLU" plus "Backend"/"SIMD" so
// both CI kernel-backend legs select them.

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

// genericFC is the vector tier's oracle: the generic GEMM the FC path used
// before weights were packed, then the reference ReLU.
func genericFC(a, w, bias *Tensor, relu bool) *Tensor {
	out := MatMulAddBias(a, w, bias)
	if relu {
		refReLU(out.Data)
	}
	return out
}

// Every m crosses the 4-row block, every k the 256-deep tile, every n the
// 16-wide strip, the 8-wide strip and the under-8 tail.
var (
	panelMs = []int{1, 3, 4, 5, 16, 255}
	panelKs = []int{1, 255, 256, 257, 2560}
	panelNs = []int{1, 7, 8, 9, 16, 24, 36, 512}
)

// forEachPanelShape runs f over the full shape grid with a ReLU-sparse left
// operand (about half exact zeros, some of them -0), skipping the largest
// products in -short runs.
func forEachPanelShape(t *testing.T, seed int64, f func(a, w, bias *Tensor)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Float32frombits(0x80000000)
	for _, m := range panelMs {
		for _, k := range panelKs {
			for _, n := range panelNs {
				if testing.Short() && m*k*n > 1<<22 {
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
	forEachPanelShape(t, 51, func(a, w, bias *Tensor) {
		p := PackPanel(w)
		for _, relu := range []bool{false, true} {
			dst := New(a.Rows, w.Cols)
			dst.Fill(42) // FCInto must overwrite, not accumulate
			sameBits(t, "FCInto(scalar)", FCInto(dst, a, p, bias, relu).Data, refFC(a, w, bias, relu).Data)
		}
	})
}

func TestPanelFCSIMDBitIdenticalToGenericGEMM(t *testing.T) {
	pinBackend(t, AVX2)
	forEachPanelShape(t, 52, func(a, w, bias *Tensor) {
		p := PackPanel(w)
		for _, relu := range []bool{false, true} {
			dst := New(a.Rows, w.Cols)
			dst.Fill(42)
			sameBits(t, "FCInto(avx2)", FCInto(dst, a, p, bias, relu).Data, genericFC(a, w, bias, relu).Data)
		}
	})
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

// backendsUnderTest lists the backends this process can run.
func backendsUnderTest() []Backend {
	if SIMDAvailable() {
		return []Backend{Scalar, AVX2}
	}
	return []Backend{Scalar}
}

func TestReLUBitContractBothBackends(t *testing.T) {
	for _, bk := range backendsUnderTest() {
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
	for _, bk := range backendsUnderTest() {
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

// FuzzPackedFCVsReference drives FCInto with fuzzer-chosen shapes (k crosses
// the 256-deep tile, n every strip width) and operands against both oracles:
// the naive reference under scalar, the generic GEMM under AVX2, each bit for
// bit. (The generic GEMM's own scalar-vs-AVX2 tolerance is FuzzSIMDMatMulVsScalar's
// business; its k-linear bound does not hold for the long same-sign sums a
// fuzzer builds at k in the hundreds.)
func FuzzPackedFCVsReference(f *testing.F) {
	f.Add([]byte{3, 4, 5, 1}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 16, 16, 0}, make([]byte, 64))
	f.Add([]byte{4, 255, 17, 1}, []byte{0x80, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{9, 3, 40, 1}, []byte{0xff, 0x7f, 0xff, 0xff, 0x7f, 0x80, 0, 1})
	f.Add([]byte{5, 129, 7, 1}, []byte{0xbf, 0x80, 0, 0, 0x3f, 0x80, 0, 0})
	f.Fuzz(func(t *testing.T, dims, data []byte) {
		if len(dims) < 4 {
			t.Skip()
		}
		m := 1 + int(dims[0])%9
		k := 1 + (int(dims[1])*2+int(dims[3])/2)%520
		n := 1 + int(dims[2])%41
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
		if !SIMDAvailable() {
			return
		}
		SetBackend(AVX2)
		simd := FCInto(New(m, n), a, p, bias, relu)
		sameBits(t, "FCInto(avx2,fuzz)", simd.Data, genericFC(a, w, bias, relu).Data)
	})
}
