package tensor

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// pinBackend forces a kernel backend for one test or benchmark, restoring
// the previous backend afterward. Pinning Scalar always succeeds (it is the
// portable reference tier, and the bit-exact tests pin it because bit
// equality against the naive references is a scalar-tier contract). Pinning
// a vector backend skips the test when it is unavailable — missing hardware
// or a DEEPRECSYS_BACKEND restriction — so the vector tier's tests vanish
// cleanly on hosts that cannot run them.
func pinBackend(tb testing.TB, b Backend) {
	tb.Helper()
	prev := ActiveBackend()
	if err := SetBackend(b); err != nil {
		tb.Skipf("backend %v unavailable: %v", b, err)
	}
	tb.Cleanup(func() { SetBackend(prev) })
}

// ---- backend dispatch ----

func TestBackendDetectionAndOverrides(t *testing.T) {
	prev := ActiveBackend()
	defer SetBackend(prev)

	// Backends() is the prefix of {Scalar, AVX2, AVX512} this process can
	// run, and the process starts on its widest entry.
	bs := Backends()
	if len(bs) == 0 || len(bs) > 3 {
		t.Fatalf("Backends() = %v", bs)
	}
	for i, bk := range bs {
		if bk != Backend(i) {
			t.Fatalf("Backends() = %v, want Scalar first and no gaps", bs)
		}
	}
	widest := bs[len(bs)-1]
	// The env override can only restrict what the hardware offers.
	if widest > supported {
		t.Fatalf("Backends() ends at %v but the CPU supports at most %v", widest, supported)
	}
	switch os.Getenv(BackendEnv) {
	case "scalar":
		if widest != Scalar {
			t.Fatalf("%s=scalar left %v activatable", BackendEnv, widest)
		}
	case "avx2":
		if widest != min(supported, AVX2) {
			t.Fatalf("%s=avx2 on a host supporting %v allows up to %v", BackendEnv, supported, widest)
		}
	default:
		if widest != supported {
			t.Fatalf("no restriction in force, yet Backends() ends at %v on a host supporting %v", widest, supported)
		}
	}

	for _, bk := range []Backend{Scalar, AVX2, AVX512} {
		if err := SetBackend(Scalar); err != nil {
			t.Fatalf("SetBackend(Scalar) = %v, want nil (scalar must always be available)", err)
		}
		err := SetBackend(bk)
		if bk <= widest {
			if err != nil {
				t.Fatalf("SetBackend(%v) = %v with Backends() = %v", bk, err, bs)
			}
			if got := ActiveBackend(); got != bk {
				t.Fatalf("ActiveBackend() = %v after forcing %v", got, bk)
			}
			continue
		}
		if err == nil {
			t.Fatalf("SetBackend(%v) succeeded with Backends() = %v", bk, bs)
		}
		if got := ActiveBackend(); got != Scalar {
			t.Fatalf("failed SetBackend(%v) changed the active backend to %v", bk, got)
		}
	}

	for _, bad := range []Backend{42, -1} {
		if err := SetBackend(bad); err == nil {
			t.Fatalf("SetBackend(%d) accepted an unknown backend", int32(bad))
		}
	}
	// cmd/bench writes String() into every result record's Backend field.
	for bk, want := range map[Backend]string{Scalar: "scalar", AVX2: "avx2", AVX512: "avx512"} {
		if s := bk.String(); s != want {
			t.Errorf("Backend(%d).String() = %q, want %q", int32(bk), s, want)
		}
	}
}

// The forced-scalar backend must remain bit-identical to the pre-SIMD
// kernels: dispatch through the public entry points with Scalar pinned has
// to reproduce the naive reference exactly, zero-skip corners included.
func TestForcedScalarBitIdenticalToReference(t *testing.T) {
	pinBackend(t, Scalar)
	rng := rand.New(rand.NewSource(21))
	for _, s := range gemmShapes {
		a := RandUniform(rng, s.m, s.k, 1)
		b := RandUniform(rng, s.k, s.n, 1)
		for i := 0; i < len(a.Data); i += 2 {
			a.Data[i] = 0 // exercise the sparse-row zero-skip path too
		}
		want := New(s.m, s.n)
		refMatMulAccum(want, a, b)
		bitsEqual(t, "forced-scalar MatMul", MatMul(a, b), want)
	}
}

// ---- tolerance harness for the vector tier ----

// gemmTol returns the absolute-difference bound for one output element of a
// [m×k]·[k×n] product with operand magnitudes ≤ amax/bmax: each backend's
// rounding error versus the exact sum is bounded by k·eps·k·amax·bmax in the
// worst case, so the difference between two orderings is within twice that.
// The bound is per-kernel and deliberately a worst case; the tests also log
// the observed maximum so drift is visible long before it fails.
func gemmTol(k int, amax, bmax float64) float64 {
	const eps = 1.0 / (1 << 24)
	return 2*float64(k)*eps*amax*bmax + 1e-30
}

func maxAbs(xs []float32) float64 {
	m := 0.0
	for _, v := range xs {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// tolEqual asserts |got-want| ≤ tol + relTol·|want| per element and returns
// the worst observed absolute and relative differences.
func tolEqual(t *testing.T, name string, got, want []float32, tol, relTol float64) (maxAbsDiff, maxRelDiff float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.IsNaN(g) != math.IsNaN(w) {
			t.Fatalf("%s[%d]: NaN mismatch: got %v, want %v", name, i, g, w)
		}
		if math.IsNaN(w) {
			continue
		}
		d := math.Abs(g - w)
		if d > tol+relTol*math.Abs(w) {
			t.Fatalf("%s[%d]: got %v, want %v (|diff| %.3g > tol %.3g + %.3g·|want|)",
				name, i, g, w, d, tol, relTol)
		}
		if d > maxAbsDiff {
			maxAbsDiff = d
		}
		if w != 0 {
			if r := d / math.Abs(w); r > maxRelDiff {
				maxRelDiff = r
			}
		}
	}
	return maxAbsDiff, maxRelDiff
}

// runBoth evaluates f under the scalar backend and under the widest vector
// backend this process can run (the CI legs make that each of them in turn),
// skipping the test when there is none. f must be a pure function of its
// inputs.
func runBoth(t *testing.T, f func() []float32) (scalar, simd []float32) {
	t.Helper()
	pinBackend(t, AVX2) // skips without a vector backend, restores on cleanup
	bs := Backends()
	if err := SetBackend(bs[len(bs)-1]); err != nil {
		t.Fatal(err)
	}
	simd = f()
	if err := SetBackend(Scalar); err != nil {
		t.Fatal(err)
	}
	scalar = f()
	return scalar, simd
}

// simdGemmShapes extends the scalar blocking shapes with cases that stress
// the vector path specifically: widths around the 16- and 8-wide strips and
// the scalar column tail, depths crossing the panelKC=256 tile boundary, and
// row counts around the 4-row register block.
var simdGemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{2, 3, 9},
	{3, 17, 1},
	{4, 4, 4},
	{5, 31, 13},
	{4, 64, 15},
	{5, 64, 16},
	{6, 64, 17},
	{7, 64, 23},
	{8, 64, 24},
	{9, 64, 25},
	{3, 64, 31},
	{4, 64, 33},
	{4, 255, 16},
	{5, 256, 16},
	{6, 257, 16},
	{7, 511, 3},
	{8, 512, 7},
	{9, 513, 40},
	{13, 1025, 19},
	{16, 64, 64},
	{33, 300, 48},
}

func TestSIMDMatMulMatchesScalarWithinTolerance(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(31))
	for _, sparsity := range []float64{0, 0.5, 0.9} {
		for _, s := range simdGemmShapes {
			a := RandUniform(rng, s.m, s.k, 1)
			b := RandUniform(rng, s.k, s.n, 1)
			for i := range a.Data {
				if rng.Float64() < sparsity {
					a.Data[i] = 0
				}
			}
			scalar, simd := runBoth(t, func() []float32 { return MatMul(a, b).Data })
			tol := gemmTol(s.k, maxAbs(a.Data), maxAbs(b.Data))
			tolEqual(t, "MatMul", simd, scalar, tol, 0)
		}
	}
}

func TestSIMDMatMulAddBiasMatchesScalarWithinTolerance(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(32))
	for _, s := range simdGemmShapes {
		a := RandUniform(rng, s.m, s.k, 1)
		w := RandUniform(rng, s.k, s.n, 1)
		bias := RandUniform(rng, 1, s.n, 1)
		scalar, simd := runBoth(t, func() []float32 { return MatMulAddBias(a, w, bias).Data })
		tol := gemmTol(s.k+1, maxAbs(a.Data), math.Max(maxAbs(w.Data), maxAbs(bias.Data)))
		tolEqual(t, "MatMulAddBias", simd, scalar, tol, 0)
	}
}

// The randomized property sweep: shapes, strides, and sparsity patterns the
// fixed tables cannot anticipate. Deterministic (seeded) so CI failures
// reproduce.
func TestSIMDMatMulRandomizedSweep(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(33))
	worstRel := 0.0
	for iter := 0; iter < 150; iter++ {
		m := 1 + rng.Intn(24)
		k := 1 + rng.Intn(600)
		n := 1 + rng.Intn(70)
		sparsity := []float64{0, 0.3, 0.5, 0.9, 0.99}[rng.Intn(5)]
		a := RandUniform(rng, m, k, 1)
		b := RandUniform(rng, k, n, 1)
		for i := range a.Data {
			if rng.Float64() < sparsity {
				a.Data[i] = 0
			}
		}
		scalar, simd := runBoth(t, func() []float32 { return MatMul(a, b).Data })
		tol := gemmTol(k, maxAbs(a.Data), maxAbs(b.Data))
		_, rel := tolEqual(t, "MatMul(sweep)", simd, scalar, tol, 0)
		if rel > worstRel {
			worstRel = rel
		}
	}
	t.Logf("worst observed SIMD-vs-scalar relative error over sweep: %.3g", worstRel)
}

// Exact-zero inputs: an all-zero a row (fully sheddable by the scalar
// zero-skip) and ±0 mixtures must produce identical zeros on both paths —
// x + 0·w is exact in every rounding mode for finite w.
func TestSIMDMatMulExactZeroInputs(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(34))
	a := New(6, 300)
	negZero := math.Float32frombits(0x80000000)
	for i := range a.Data {
		if i%2 == 0 {
			a.Data[i] = negZero
		}
	}
	b := RandUniform(rng, 300, 24, 1)
	scalar, simd := runBoth(t, func() []float32 { return MatMul(a, b).Data })
	for i := range simd {
		if simd[i] != 0 || scalar[i] != 0 {
			t.Fatalf("zero·b produced nonzero at %d: simd %v scalar %v", i, simd[i], scalar[i])
		}
	}
}

// Denormal and large-magnitude ("Inf-adjacent" but finite) operands: the
// vector path must neither flush denormals differently nor overflow where
// the scalar path does not.
func TestSIMDMatMulExtremeMagnitudes(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(35))
	for _, scale := range []float32{1e-40, 1e-20, 1e18} {
		a := RandUniform(rng, 5, 37, 1)
		b := RandUniform(rng, 37, 17, 1)
		for i := range a.Data {
			a.Data[i] *= scale
		}
		scalar, simd := runBoth(t, func() []float32 { return MatMul(a, b).Data })
		for i := range simd {
			if math.IsInf(float64(simd[i]), 0) != math.IsInf(float64(scalar[i]), 0) {
				t.Fatalf("scale %g: Inf mismatch at %d: simd %v scalar %v", scale, i, simd[i], scalar[i])
			}
		}
		tol := gemmTol(37, maxAbs(a.Data), maxAbs(b.Data))
		tolEqual(t, "MatMul(extreme)", simd, scalar, tol, 0)
	}
}

func TestSIMDAXPYMatchesScalarWithinTolerance(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 31, 32, 33, 100, 257} {
		x := make([]float32, n)
		y0 := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
			y0[i] = rng.Float32()*2 - 1
		}
		alpha := rng.Float32()*4 - 2
		scalar, simd := runBoth(t, func() []float32 {
			y := append([]float32(nil), y0...)
			AXPY(alpha, x, y)
			return y
		})
		// One fused versus two separate roundings per element: the
		// difference is bounded by one ULP of the intermediate product —
		// which cancellation can make arbitrarily large relative to the
		// result, so the bound is absolute in the operand magnitudes.
		tol := 2.4e-7*(math.Abs(float64(alpha))*maxAbs(x)+maxAbs(y0)) + 1e-30
		tolEqual(t, "AXPY", simd, scalar, tol, 0)
	}
}

// AddTo and AddTo8 perform no multiplies and preserve per-element add order,
// so the vector tier must match the scalar tier bit-for-bit.
func TestSIMDAddToBitIdentical(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 31, 32, 33, 64, 100, 255} {
		x := make([]float32, n)
		y0 := make([]float32, n)
		for i := range x {
			x[i] = rng.Float32()*2 - 1
			y0[i] = rng.Float32()*2 - 1
		}
		scalar, simd := runBoth(t, func() []float32 {
			y := append([]float32(nil), y0...)
			AddTo(y, x)
			return y
		})
		for i := range simd {
			if simd[i] != scalar[i] {
				t.Fatalf("AddTo(n=%d)[%d]: simd %v != scalar %v", n, i, simd[i], scalar[i])
			}
		}
	}
}

func TestSIMDAddTo8BitIdentical(t *testing.T) {
	pinBackend(t, AVX2)
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 32, 33, 40, 100} {
		src := make([][]float32, 8)
		for s := range src {
			src[s] = make([]float32, n)
			for i := range src[s] {
				src[s][i] = rng.Float32()*2 - 1
			}
		}
		d0 := make([]float32, n)
		for i := range d0 {
			d0[i] = rng.Float32()
		}
		scalar, simd := runBoth(t, func() []float32 {
			d := append([]float32(nil), d0...)
			AddTo8(d, src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7])
			return d
		})
		for i := range simd {
			if simd[i] != scalar[i] {
				t.Fatalf("AddTo8(n=%d)[%d]: simd %v != scalar %v", n, i, simd[i], scalar[i])
			}
		}
	}
}

// ---- fuzz targets (the seeded corpus runs as regular tests in CI; use
// `go test -fuzz FuzzSIMD -run '^$' ./internal/tensor/` to explore) ----

// sanitize maps arbitrary bytes to finite float32s in [-8, 8], with exact
// zeros preserved so the sparse paths stay exercised.
func sanitize(data []byte, out []float32) {
	for i := range out {
		var bits uint32
		for b := 0; b < 4; b++ {
			if 4*i+b < len(data) {
				bits = bits<<8 | uint32(data[4*i+b])
			}
		}
		f := math.Float32frombits(bits)
		switch {
		case bits == 0 || bits == 0x80000000:
			out[i] = f // keep ±0
		case math.IsNaN(float64(f)) || math.IsInf(float64(f), 0):
			out[i] = float32(bits%17) - 8
		default:
			for f > 8 || f < -8 {
				f /= 256
			}
			out[i] = f
		}
	}
}

func FuzzSIMDMatMulVsScalar(f *testing.F) {
	f.Add([]byte{3, 4, 5}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 16, 16}, make([]byte, 64))
	f.Add([]byte{4, 2, 17}, []byte{0x80, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0, 5, 5, 5, 5})
	f.Add([]byte{8, 9, 24}, []byte{0xff, 0x7f, 0xff, 0xff, 0x7f, 0x80, 0, 1})
	f.Fuzz(func(t *testing.T, dims, data []byte) {
		if len(Backends()) == 1 {
			t.Skip("SIMD backend unavailable")
		}
		if len(dims) < 3 {
			t.Skip()
		}
		m := 1 + int(dims[0])%12
		k := 1 + int(dims[1])%48
		n := 1 + int(dims[2])%36
		vals := make([]float32, m*k+k*n)
		if len(data) < 4*len(vals) {
			data = append(data, make([]byte, 4*len(vals)-len(data))...)
		}
		sanitize(data, vals)
		a := FromSlice(m, k, vals[:m*k])
		b := FromSlice(k, n, vals[m*k:])
		prev := ActiveBackend()
		defer SetBackend(prev)
		SetBackend(Scalar)
		want := MatMul(a, b)
		tol := gemmTol(k, maxAbs(a.Data), maxAbs(b.Data))
		for _, bk := range Backends()[1:] {
			SetBackend(bk)
			tolEqual(t, "MatMul(fuzz,"+bk.String()+")", MatMul(a, b).Data, want.Data, tol, 0)
		}
	})
}

// ---- per-backend GEMM benchmarks ----

func benchGEMM(b *testing.B, bk Backend, dim int) {
	prev := ActiveBackend()
	if err := SetBackend(bk); err != nil {
		b.Skipf("backend %v unavailable: %v", bk, err)
	}
	b.Cleanup(func() { SetBackend(prev) })
	rng := rand.New(rand.NewSource(1))
	x := RandUniform(rng, dim, dim, 1)
	w := RandUniform(rng, dim, dim, 1)
	dst := New(dim, dim)
	flopsPerOp := 2 * float64(dim) * float64(dim) * float64(dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, w)
	}
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkMatMulBackends(b *testing.B) {
	for _, bk := range []Backend{Scalar, AVX2, AVX512} { // benchGEMM skips what the host lacks
		for _, dim := range []int{256, 512} {
			b.Run(bk.String()+"/"+map[int]string{256: "256", 512: "512"}[dim], func(b *testing.B) {
				benchGEMM(b, bk, dim)
			})
		}
	}
}
