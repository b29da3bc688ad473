package tensor

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// bitsEqual reports exact bit-level equality of two equal-shape tensors.
func bitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape [%dx%d], want [%dx%d]", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-for-bit)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// Shapes chosen to stress the blocking: row counts around the 8-row block of
// the scalar kernel (and the vector tier's 4-row one), inner dims crossing
// the panelKC=256 tile boundary several times, and single-row/column operands.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 5},
	{2, 3, 9},
	{3, 17, 1},
	{4, 4, 4},
	{5, 31, 13},
	{6, 100, 33},
	{7, 511, 3},
	{8, 512, 7},
	{9, 513, 5},
	{13, 1025, 3},
	{16, 64, 64},
}

func TestMatMulBlockedMatchesReferenceBitForBit(t *testing.T) {
	pinBackend(t, Scalar)
	rng := rand.New(rand.NewSource(11))
	for _, s := range gemmShapes {
		a := RandUniform(rng, s.m, s.k, 1)
		b := RandUniform(rng, s.k, s.n, 1)

		want := New(s.m, s.n)
		refMatMulAccum(want, a, b)

		bitsEqual(t, "MatMul", MatMul(a, b), want)

		dst := New(s.m, s.n)
		dst.Fill(42) // MatMulInto must overwrite, not accumulate
		bitsEqual(t, "MatMulInto", MatMulInto(dst, a, b), want)
	}
}

func TestMatMulAddBiasIntoMatchesReferenceBitForBit(t *testing.T) {
	pinBackend(t, Scalar)
	rng := rand.New(rand.NewSource(12))
	for _, s := range gemmShapes {
		a := RandUniform(rng, s.m, s.k, 1)
		w := RandUniform(rng, s.k, s.n, 1)
		bias := RandUniform(rng, 1, s.n, 1)

		want := New(s.m, s.n)
		for i := 0; i < s.m; i++ {
			copy(want.Row(i), bias.Data)
		}
		refMatMulAccum(want, a, w)

		bitsEqual(t, "MatMulAddBias", MatMulAddBias(a, w, bias), want)
		bitsEqual(t, "MatMulAddBiasInto", MatMulAddBiasInto(New(s.m, s.n), a, w, bias), want)
	}
}

// The kernels must preserve reference behavior on inputs with exact zeros
// (ReLU activations are full of them) — the case where a zero-skipping
// shortcut could diverge in the signed-zero corner.
func TestMatMulWithExactZeros(t *testing.T) {
	pinBackend(t, Scalar)
	rng := rand.New(rand.NewSource(13))
	a := RandUniform(rng, 6, 37, 1)
	for i := 0; i < len(a.Data); i += 3 {
		a.Data[i] = 0
	}
	b := RandUniform(rng, 37, 11, 1)
	want := New(6, 11)
	refMatMulAccum(want, a, b)
	bitsEqual(t, "MatMul(zeros)", MatMul(a, b), want)
}

// MatMulInto and MatMulAddBiasInto are allocation-free layers (ARCHITECTURE,
// "The compute stack") although they pack b per call: the pack reuses pooled
// storage — except under the race detector, where sync.Pool drops a quarter of
// its Puts on purpose. Degenerate shapes behave as before the pack existed:
// k = 0 leaves the bias rows (or zeros), and an empty m or n is a no-op, not a
// panic.
func TestMatMulIntoAllocFreeAndEdgeShapesAllBackends(t *testing.T) {
	empty := func(rows, cols int) *Tensor { return &Tensor{Rows: rows, Cols: cols} }
	bi, _ := debug.ReadBuildInfo()
	race := bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
	for _, bk := range Backends() {
		pinBackend(t, bk)
		rng := rand.New(rand.NewSource(16))
		a, b, bias := RandUniform(rng, 9, 300, 1), RandUniform(rng, 300, 40, 1), RandUniform(rng, 1, 40, 1)
		dst := New(9, 40)
		for _, call := range []struct {
			name string
			run  func()
		}{
			{"MatMulInto", func() { MatMulInto(dst, a, b) }},
			{"MatMulAddBiasInto", func() { MatMulAddBiasInto(dst, a, b, bias) }},
		} {
			call.run()
			if allocs := testing.AllocsPerRun(20, call.run); allocs != 0 && !race {
				t.Errorf("%s(%v): %v allocs/op in steady state, want 0", call.name, bk, allocs)
			}
		}

		dst.Fill(42)
		MatMulAddBiasInto(dst, empty(9, 0), empty(0, 40), bias)
		for i := 0; i < dst.Rows; i++ {
			bitsEqual(t, "MatMulAddBiasInto(k=0)", FromSlice(1, 40, dst.Row(i)), bias)
		}
		dst.Fill(42)
		bitsEqual(t, "MatMulInto(k=0)", MatMulInto(dst, empty(9, 0), empty(0, 40)), New(9, 40))

		MatMulInto(empty(0, 40), empty(0, 300), b)
		MatMulAddBiasInto(empty(0, 40), empty(0, 300), b, bias)
		MatMulInto(empty(9, 0), a, empty(300, 0))
		MatMulAddBiasInto(empty(9, 0), a, empty(300, 0), empty(1, 0))
	}
}

// Concurrent MatMul* callers share the pack pool: each must still multiply
// its own b. Run under -race.
func TestMatMulConcurrentCallersPackTheirOwnOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		a, b := RandUniform(rng, 5, 40+g, 1), RandUniform(rng, 40+g, 24+g, 1)
		want := MatMul(a, b)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(5, 24+g)
			for i := 0; i < 200; i++ {
				MatMulInto(dst, a, b)
				for j := range want.Data {
					if dst.Data[j] != want.Data[j] {
						t.Errorf("caller %d, call %d: element %d = %v, want %v", g, i, j, dst.Data[j], want.Data[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestAXPYUnrolledMatchesNaive(t *testing.T) {
	pinBackend(t, Scalar)
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 101} {
		a := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32()*2 - 1
		}
		y := make([]float32, n)
		wantY := make([]float32, n)
		for i := range y {
			y[i] = rng.Float32()
			wantY[i] = y[i] + 0.5*a[i]
		}
		AXPY(0.5, a, y)
		for i := range y {
			if y[i] != wantY[i] {
				t.Errorf("AXPY(n=%d)[%d] = %v, want %v", n, i, y[i], wantY[i])
			}
		}
	}
}

func TestArenaReuseAndZeroing(t *testing.T) {
	var ar Arena
	a := ar.NewTensor(2, 3)
	a.Fill(7)
	ar.Reset()
	b := ar.NewTensor(2, 3)
	if &a.Data[0] != &b.Data[0] || a != b {
		t.Error("arena did not reuse storage and header after Reset")
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused tensor not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaMarkRelease(t *testing.T) {
	var ar Arena
	keep := ar.NewTensor(1, 4)
	keep.Fill(3)
	m := ar.Mark()
	tmp := ar.NewTensor(1, 8)
	tmp.Fill(9)
	ar.Release(m)
	again := ar.NewTensor(1, 8)
	if &again.Data[0] != &tmp.Data[0] {
		t.Error("Release did not rewind the allocation cursor")
	}
	for _, v := range keep.Data {
		if v != 3 {
			t.Fatalf("allocation before the mark was clobbered: %v", keep.Data)
		}
	}
}

func TestArenaLargeAllocationGetsOwnBlock(t *testing.T) {
	var ar Arena
	small := ar.NewTensor(1, 8)
	big := ar.NewTensor(300, 300) // 90000 > arenaMinBlock
	small.Fill(1)
	big.Fill(2)
	for _, v := range small.Data {
		if v != 1 {
			t.Fatal("small allocation overwritten by large-block growth")
		}
	}
	ar.Reset()
	if got := ar.NewTensor(1, 8); &got.Data[0] != &small.Data[0] {
		t.Error("Reset did not rewind to the first block")
	}
}

func TestArenaSteadyStateAllocationFree(t *testing.T) {
	var ar Arena
	pass := func() {
		ar.Reset()
		x := ar.NewTensor(16, 32)
		m := ar.Mark()
		for i := 0; i < 10; i++ {
			ar.NewTensor(8, 64)
			ar.Floats(100)
			ar.Release(m)
		}
		ar.View(32, 16, x.Data)
	}
	pass() // warm the block list and header pool
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("steady-state arena pass allocates %v times, want 0", allocs)
	}
}

func TestArenaViewAliases(t *testing.T) {
	var ar Arena
	backing := []float32{1, 2, 3, 4, 5, 6}
	v := ar.View(2, 3, backing)
	v.Set(1, 2, 9)
	if backing[5] != 9 {
		t.Error("View copied instead of aliasing")
	}
}

func BenchmarkMatMulBlocked256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandUniform(rng, 256, 256, 1)
	w := RandUniform(rng, 256, 256, 1)
	dst := New(256, 256)
	const flopsPerOp = 2 * 256 * 256 * 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, w)
	}
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
