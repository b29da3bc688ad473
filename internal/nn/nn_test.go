package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

func TestActivationReLU(t *testing.T) {
	x := tensor.FromSlice(1, 4, []float32{-1, 0, 2, -3})
	ReLU.Apply(x)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if x.Data[i] != w {
			t.Errorf("relu[%d] = %v, want %v", i, x.Data[i], w)
		}
	}
}

func TestActivationSigmoidRangeAndMidpoint(t *testing.T) {
	x := tensor.FromSlice(1, 3, []float32{0, 10, -10})
	Sigmoid.Apply(x)
	if math.Abs(float64(x.Data[0])-0.5) > 1e-6 {
		t.Errorf("sigmoid(0) = %v, want 0.5", x.Data[0])
	}
	if x.Data[1] < 0.99 || x.Data[2] > 0.01 {
		t.Errorf("sigmoid saturation wrong: %v", x.Data)
	}
}

func TestActivationTanhAndNone(t *testing.T) {
	x := tensor.FromSlice(1, 2, []float32{0, 1})
	Tanh.Apply(x)
	if x.Data[0] != 0 || math.Abs(float64(x.Data[1])-math.Tanh(1)) > 1e-6 {
		t.Errorf("tanh = %v", x.Data)
	}
	y := tensor.FromSlice(1, 2, []float32{-5, 5})
	None.Apply(y)
	if y.Data[0] != -5 || y.Data[1] != 5 {
		t.Errorf("identity changed values: %v", y.Data)
	}
}

// Property: sigmoid output is always in (0, 1) and monotone.
func TestSigmoidProperty(t *testing.T) {
	f := func(a, b float32) bool {
		if a != a || b != b { // NaN guard
			return true
		}
		if a > b {
			a, b = b, a
		}
		sa, sb := sigmoid(a), sigmoid(b)
		return sa >= 0 && sb <= 1 && sa <= sb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestActivationString(t *testing.T) {
	if None.String() != "none" || ReLU.String() != "relu" || Sigmoid.String() != "sigmoid" || Tanh.String() != "tanh" {
		t.Error("Activation.String mismatch")
	}
}

func TestLinearForwardShapeAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 4, 3, None)
	l.SetWeights(tensor.New(4, 3))
	l.B.Data[0], l.B.Data[1], l.B.Data[2] = 1, 2, 3
	x := tensor.New(2, 4)
	out := l.Forward(x)
	if out.Rows != 2 || out.Cols != 3 {
		t.Fatalf("shape [%dx%d], want [2x3]", out.Rows, out.Cols)
	}
	if out.At(0, 0) != 1 || out.At(1, 2) != 3 {
		t.Errorf("bias not applied: %v", out.Data)
	}
}

func TestLinearFLOPsAndBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 10, 20, ReLU)
	if got := l.FLOPsPerItem(); got != 2*10*20+20 {
		t.Errorf("FLOPsPerItem = %d", got)
	}
	if got := l.WeightBytes(); got != 4*(10*20+20) {
		t.Errorf("WeightBytes = %d", got)
	}
}

func TestMLPWidthsAndForward(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, []int{8, 16, 4}, ReLU, Sigmoid)
	if m.In() != 8 || m.Out() != 4 || len(m.Layers) != 2 {
		t.Fatalf("MLP structure wrong: in=%d out=%d layers=%d", m.In(), m.Out(), len(m.Layers))
	}
	x := tensor.RandUniform(rng, 5, 8, 1)
	out := m.Forward(x)
	if out.Rows != 5 || out.Cols != 4 {
		t.Fatalf("forward shape [%dx%d]", out.Rows, out.Cols)
	}
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output %v outside (0,1)", v)
		}
	}
}

func TestMLPPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), []int{4}, ReLU, None)
}

func TestMLPFLOPAccountingMatchesLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, []int{256, 128, 32}, ReLU, None)
	var want int64
	for _, l := range m.Layers {
		want += l.FLOPsPerItem()
	}
	if got := m.FLOPsPerItem(); got != want {
		t.Errorf("FLOPsPerItem = %d, want %d", got, want)
	}
	if m.WeightBytes() != m.Layers[0].WeightBytes()+m.Layers[1].WeightBytes() {
		t.Error("WeightBytes mismatch")
	}
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewEmbeddingTable(rng, 10, 4)
	out := e.Lookup([]int{3, 3, 7})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("lookup shape [%dx%d]", out.Rows, out.Cols)
	}
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(1, j) {
			t.Fatal("same index produced different vectors")
		}
		if out.At(0, j) != e.Weights.At(3, j) {
			t.Fatal("lookup does not match table row")
		}
	}
}

func TestEmbeddingLookupPanicsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewEmbeddingTable(rng, 10, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Lookup([]int{10})
}

func TestEmbeddingBagSumPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewEmbeddingBag(rng, 8, 3, PoolSum)
	out := b.Forward([][]int{{1, 2}, {4}})
	if out.Rows != 2 || out.Cols != 3 {
		t.Fatalf("shape [%dx%d]", out.Rows, out.Cols)
	}
	for j := 0; j < 3; j++ {
		want := b.Table.Weights.At(1, j) + b.Table.Weights.At(2, j)
		if math.Abs(float64(out.At(0, j)-want)) > 1e-6 {
			t.Errorf("sum pooling wrong at col %d", j)
		}
		if out.At(1, j) != b.Table.Weights.At(4, j) {
			t.Errorf("single-lookup sum pooling wrong at col %d", j)
		}
	}
}

func TestEmbeddingBagConcatPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewEmbeddingBag(rng, 8, 3, PoolConcat)
	out := b.Forward([][]int{{1, 2}, {3, 4}})
	if out.Rows != 2 || out.Cols != 6 {
		t.Fatalf("shape [%dx%d], want [2x6]", out.Rows, out.Cols)
	}
	if out.At(0, 0) != b.Table.Weights.At(1, 0) || out.At(0, 3) != b.Table.Weights.At(2, 0) {
		t.Error("concat pooling layout wrong")
	}
}

func TestEmbeddingBagConcatPanicsOnRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewEmbeddingBag(rng, 8, 3, PoolConcat)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.Forward([][]int{{1, 2}, {3}})
}

func TestEmbeddingBagBytesPerItem(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewEmbeddingBag(rng, 8, 32, PoolSum)
	if got := b.BytesPerItem(80); got != 80*32*4 {
		t.Errorf("BytesPerItem = %d, want %d", got, 80*32*4)
	}
}

func TestPoolingString(t *testing.T) {
	if PoolSum.String() != "sum" || PoolConcat.String() != "concat" {
		t.Error("Pooling.String mismatch")
	}
}

func TestAttentionShapesAndWeighting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAttention(rng, 4, 8)
	query := tensor.RandUniform(rng, 2, 4, 1)
	history := []*tensor.Tensor{
		tensor.RandUniform(rng, 5, 4, 1),
		tensor.RandUniform(rng, 3, 4, 1),
	}
	out := a.Forward(query, history)
	if out.Rows != 2 || out.Cols != 4 {
		t.Fatalf("attention shape [%dx%d]", out.Rows, out.Cols)
	}
}

func TestAttentionSinglePositionEqualsScaledVector(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := NewAttention(rng, 4, 8)
	query := tensor.RandUniform(rng, 1, 4, 1)
	hist := tensor.RandUniform(rng, 1, 4, 1)
	out := a.Forward(query, []*tensor.Tensor{hist})
	// With one history position the output must be a scalar multiple of it.
	var ratio float64
	set := false
	for j := 0; j < 4; j++ {
		h := float64(hist.At(0, j))
		if math.Abs(h) < 1e-6 {
			continue
		}
		r := float64(out.At(0, j)) / h
		if !set {
			ratio = r
			set = true
		} else if math.Abs(r-ratio) > 1e-4 {
			t.Fatalf("output not proportional to single history vector: %v vs %v", r, ratio)
		}
	}
	if !set {
		t.Skip("degenerate all-zero history draw")
	}
}

func TestAttentionPanicsOnBatchMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAttention(rng, 4, 8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Forward(tensor.New(2, 4), []*tensor.Tensor{tensor.New(1, 4)})
}

func TestAttentionFLOPsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAttention(rng, 32, 36)
	if a.FLOPsPerPosition() <= 0 {
		t.Error("FLOPsPerPosition must be positive")
	}
}

func TestGRUCellStepShapesAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewGRUCell(rng, 4, 6)
	x := tensor.RandUniform(rng, 3, 4, 1)
	h := tensor.New(3, 6)
	h2 := c.Step(x, h)
	if h2.Rows != 3 || h2.Cols != 6 {
		t.Fatalf("step shape [%dx%d]", h2.Rows, h2.Cols)
	}
	// With h=0, h' = z⊙tanh(...) so |h'| < 1 strictly.
	for _, v := range h2.Data {
		if v <= -1 || v >= 1 {
			t.Fatalf("hidden state %v outside (-1,1) after first step", v)
		}
	}
}

func TestGRUForwardRaggedSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewGRU(rng, 4, 6)
	seqs := []*tensor.Tensor{
		tensor.RandUniform(rng, 7, 4, 1),
		tensor.RandUniform(rng, 2, 4, 1),
	}
	out := g.Forward(seqs)
	if out.Rows != 2 || out.Cols != 6 {
		t.Fatalf("GRU output shape [%dx%d]", out.Rows, out.Cols)
	}
}

func TestGRUDeterminism(t *testing.T) {
	mk := func() *tensor.Tensor {
		rng := rand.New(rand.NewSource(11))
		g := NewGRU(rng, 4, 6)
		seq := tensor.RandUniform(rng, 5, 4, 1)
		return g.Forward([]*tensor.Tensor{seq})
	}
	a, b := mk(), mk()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("GRU forward is not deterministic under fixed seed")
		}
	}
}

func TestGRUFLOPsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewGRUCell(rng, 32, 32)
	want := int64(2*32*32*3 + 2*32*32*3 + 10*32)
	if got := c.FLOPsPerStepPerItem(); got != want {
		t.Errorf("FLOPsPerStepPerItem = %d, want %d", got, want)
	}
}
