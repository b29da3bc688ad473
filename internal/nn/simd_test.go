package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// Layer-level differential coverage of the two-tier numerical-equivalence
// policy: layers built on GEMM/AXPY (Linear, MLP, Attention, GRU) must agree
// between backends within a k-scaled tolerance, while the embedding bag —
// whose pooling applies one add per element in fixed source order on every
// backend — must stay bit-identical.

// runBothBackends evaluates f under the widest vector backend this process
// can run (the CI legs make that each of them in turn), then under Scalar,
// skipping the test when there is no vector backend.
func runBothBackends(t *testing.T, f func() []float32) (scalar, simd []float32) {
	t.Helper()
	bs := tensor.Backends()
	if len(bs) == 1 {
		t.Skip("SIMD backend unavailable")
	}
	prev := tensor.ActiveBackend()
	if err := tensor.SetBackend(bs[len(bs)-1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tensor.SetBackend(prev) })
	simd = f()
	if err := tensor.SetBackend(tensor.Scalar); err != nil {
		t.Fatal(err)
	}
	scalar = f()
	return scalar, simd
}

// layerTol bounds the per-element backend difference for a layer whose
// longest accumulation chain is k elements of magnitude ≤ amax·bmax
// (see gemmTol in internal/tensor). Activations are monotone and applied
// identically on both paths, so they do not widen the bound materially.
func layerTol(k int, amax, bmax float64) float64 {
	const eps = 1.0 / (1 << 24)
	return 4*float64(k)*eps*amax*bmax + 1e-30
}

func assertWithinTol(t *testing.T, name string, simd, scalar []float32, tol float64) {
	t.Helper()
	if len(simd) != len(scalar) {
		t.Fatalf("%s: length %d vs %d", name, len(simd), len(scalar))
	}
	for i := range scalar {
		d := math.Abs(float64(simd[i]) - float64(scalar[i]))
		if d > tol {
			t.Fatalf("%s[%d]: simd %v scalar %v (|diff| %.3g > tol %.3g)",
				name, i, simd[i], scalar[i], d, tol)
		}
	}
}

func TestLinearAndMLPForwardSIMDWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lin := NewLinear(rng, 48, 33, ReLU)
	mlp := NewMLP(rng, []int{48, 64, 17, 9}, ReLU, Sigmoid)
	x := tensor.RandUniform(rng, 6, 48, 1)

	scalar, simd := runBothBackends(t, func() []float32 { return lin.Forward(x).Data })
	assertWithinTol(t, "Linear", simd, scalar, layerTol(48+1, 2, 2))

	scalar, simd = runBothBackends(t, func() []float32 { return mlp.Forward(x).Data })
	assertWithinTol(t, "MLP", simd, scalar, layerTol(3*64, 4, 4))
}

func TestAttentionAndGRUForwardSIMDWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	att := NewAttention(rng, 16, 24)
	gru := NewGRU(rng, 16, 12)
	// One ragged history sequence per batch item (query rows must match).
	query := tensor.RandUniform(rng, 3, 16, 1)
	history := []*tensor.Tensor{
		tensor.RandUniform(rng, 4, 16, 1),
		tensor.RandUniform(rng, 7, 16, 1),
		tensor.RandUniform(rng, 1, 16, 1),
	}
	seqs := make([]*tensor.Tensor, 3)
	for i := range seqs {
		seqs[i] = tensor.RandUniform(rng, 5, 16, 1)
	}

	scalar, simd := runBothBackends(t, func() []float32 { return att.Forward(query, history).Data })
	assertWithinTol(t, "Attention", simd, scalar, layerTol(4*24, 4, 4))

	scalar, simd = runBothBackends(t, func() []float32 { return gru.Forward(seqs).Data })
	// Five timesteps of three gate GEMMs compound the reordering; sigmoid/
	// tanh keep magnitudes ≤ 1 so the chain bound stays k-linear.
	assertWithinTol(t, "GRU", simd, scalar, layerTol(5*3*(16+12), 2, 2))
}

// The embedding bag is pinned bit-exact across backends: pooling performs no
// multiplies and both backends accumulate sources in identical per-element
// order (tensor.PoolSum). Lookup counts cover the scalar backend's fused 8-row
// passes and its serial tail; width 36 the vector kernel's 32-float block and
// the 4-column tail in Go.
func TestEmbeddingBagPoolingBitIdenticalAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bag := NewEmbeddingBag(rng, 500, 36, PoolSum)
	for _, lookups := range []int{1, 7, 8, 9, 16, 23, 80} {
		idxRng := rand.New(rand.NewSource(int64(lookups)))
		indices := make([][]int, 5)
		for i := range indices {
			indices[i] = make([]int, lookups)
			for j := range indices[i] {
				indices[i][j] = idxRng.Intn(500)
			}
		}
		scalar, simd := runBothBackends(t, func() []float32 { return bag.Forward(indices).Data })
		for i := range scalar {
			if scalar[i] != simd[i] {
				t.Fatalf("lookups=%d: pooling diverged at %d: simd %v scalar %v (must be bit-identical)",
					lookups, i, simd[i], scalar[i])
			}
		}
	}
}

// A Linear holds its weights only as a packed panel, but a seed must still
// yield the model it always did: the layers of an MLP carry, bit for bit, the
// values successive row-major XavierUniform draws produce from the same
// generator, and leave the generator where those draws would.
func TestLinearPanelWeightsBitIdenticalToRowMajorSeed(t *testing.T) {
	sizes := []int{300, 40, 17, 1} // crosses the k-tile, every strip width
	r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	mlp := NewMLP(r1, sizes, ReLU, Sigmoid)
	for i, l := range mlp.Layers {
		want := tensor.XavierUniform(r2, sizes[i], sizes[i+1])
		got := l.Weights()
		if !got.SameShape(want) {
			t.Fatalf("layer %d: shape %v, want %v", i, got, want)
		}
		for j := range want.Data {
			if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
				t.Fatalf("layer %d weight %d = %v, want %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}
	if a, b := r1.Int63(), r2.Int63(); a != b {
		t.Fatalf("generator diverged after construction (%d vs %d)", a, b)
	}
}

// Linear.Forward over the panel against the unpacked path it replaced —
// MatMulAddBias on the row-major weights (which packs them per call), then
// the historical activation loop — bit for bit, on every backend this process
// can run: the fused ReLU epilogue and the separate activations must agree.
func TestLinearPanelForwardBitIdenticalToGenericGEMMBothBackends(t *testing.T) {
	prev := tensor.ActiveBackend()
	defer tensor.SetBackend(prev)
	for _, bk := range tensor.Backends() {
		if err := tensor.SetBackend(bk); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(44))
		for _, act := range []Activation{None, ReLU, Sigmoid, Tanh} {
			for _, s := range []struct{ m, in, out int }{{1, 1, 1}, {3, 48, 33}, {5, 257, 24}, {16, 600, 7}, {4, 64, 512}} {
				l := NewLinear(rng, s.in, s.out, act)
				l.B = tensor.RandUniform(rng, 1, s.out, 1)
				x := tensor.RandUniform(rng, s.m, s.in, 1)
				for i := range x.Data { // a ReLU-sparse input, as hidden layers see
					if i%2 == 0 {
						x.Data[i] = 0
					}
				}
				want := tensor.MatMulAddBias(x, l.Weights(), l.B)
				if act == ReLU {
					for i, v := range want.Data {
						if v < 0 {
							want.Data[i] = 0
						}
					}
				} else {
					act.Apply(want)
				}
				got := l.Forward(x)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%v %v [%dx%d→%d][%d]: %v, want %v", bk, act, s.m, s.in, s.out, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestLinearPanelSetWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	l := NewLinear(rng, 270, 29, None)
	w := tensor.RandUniform(rng, 270, 29, 1)
	l.SetWeights(w)
	got := l.Weights()
	for i := range w.Data {
		if got.Data[i] != w.Data[i] {
			t.Fatalf("weight %d = %v after SetWeights, want %v", i, got.Data[i], w.Data[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("SetWeights accepted a wrong-shaped tensor")
		}
	}()
	l.SetWeights(tensor.New(29, 270))
}
