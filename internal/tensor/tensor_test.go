package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float32) bool {
	return math.Abs(float64(a-b)) < 1e-4
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("unexpected shape: %v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 3)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if !almostEqual(c.Data[i], w) {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Property: multiplying by the identity leaves a matrix unchanged.
func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(rows8, cols8 uint8) bool {
		rows := int(rows8%8) + 1
		cols := int(cols8%8) + 1
		a := RandUniform(rng, rows, cols, 1)
		id := New(cols, cols)
		for i := 0; i < cols; i++ {
			id.Set(i, i, 1)
		}
		c := MatMul(a, id)
		for i := range a.Data {
			if !almostEqual(a.Data[i], c.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// transpose returns tᵀ.
func transpose(t *Tensor) *Tensor {
	out := New(t.Cols, t.Rows)
	for r := 0; r < t.Rows; r++ {
		for c, v := range t.Row(r) {
			out.Set(c, r, v)
		}
	}
	return out
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(m8, k8, n8 uint8) bool {
		m, k, n := int(m8%6)+1, int(k8%6)+1, int(n8%6)+1
		a := RandUniform(rng, m, k, 1)
		b := RandUniform(rng, k, n, 1)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		if !lhs.SameShape(rhs) {
			return false
		}
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatMulAddBias(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 1})
	w := FromSlice(2, 2, []float32{1, 2, 3, 4})
	bias := FromSlice(1, 2, []float32{10, 20})
	out := MatMulAddBias(a, w, bias)
	if !almostEqual(out.At(0, 0), 14) || !almostEqual(out.At(0, 1), 26) {
		t.Errorf("out = %v", out.Data)
	}
}

func TestMatMulAddBiasPanicsOnBadBias(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatMulAddBias(New(1, 2), New(2, 2), New(1, 3))
}

func TestConcat(t *testing.T) {
	a := FromSlice(2, 1, []float32{1, 2})
	b := FromSlice(2, 2, []float32{3, 4, 5, 6})
	c := ConcatInto(New(2, 3), a, b)
	want := []float32{1, 3, 4, 2, 5, 6}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestConcatPanicsOnRowMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ConcatInto(New(2, 2), New(2, 1), New(3, 1))
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	if got := AddInto(New(1, 3), a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Errorf("AddInto = %v", got)
	}
	if got := MulInto(New(1, 3), a, b).Data; got[0] != 4 || got[2] != 18 {
		t.Errorf("MulInto = %v", got)
	}
}

func TestScaleAndAddInPlace(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	a.Scale(3)
	if a.Data[1] != 6 {
		t.Errorf("Scale result %v", a.Data)
	}
	a.AddInPlace(FromSlice(1, 2, []float32{1, 1}))
	if a.Data[0] != 4 || a.Data[1] != 7 {
		t.Errorf("AddInPlace result %v", a.Data)
	}
}

func TestFillAndZero(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	if a.At(1, 1) != 3 {
		t.Error("Fill failed")
	}
	a.Zero()
	if a.At(0, 0) != 0 {
		t.Error("Zero failed")
	}
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := RandUniform(rng, 10, 10, 0.5)
	for _, v := range u.Data {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("uniform value %v outside [-0.5, 0.5)", v)
		}
	}
	x := XavierUniform(rng, 100, 100)
	limit := float32(math.Sqrt(6.0 / 200.0))
	for _, v := range x.Data {
		if v < -limit || v >= limit {
			t.Fatalf("xavier value %v outside limit %v", v, limit)
		}
	}
	n := RandNormal(rng, 50, 50, 0.1)
	var sum float64
	for _, v := range n.Data {
		sum += float64(v)
	}
	mean := sum / float64(len(n.Data))
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal init mean = %v, want ~0", mean)
	}
}

func TestInitDeterminism(t *testing.T) {
	a := RandUniform(rand.New(rand.NewSource(9)), 4, 4, 1)
	b := RandUniform(rand.New(rand.NewSource(9)), 4, 4, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different tensors")
		}
	}
}
