// Package tensor implements the dense numerical substrate for the
// recommendation model zoo: row-major float32 matrices with the small set of
// operations neural recommendation inference needs (GEMM, bias/activation
// application, elementwise arithmetic, concatenation, pooling).
//
// The package is deliberately minimal — it replaces the Caffe2/MKL backend
// the paper used with a pure-Go implementation whose purpose is functional
// correctness and operator-level accounting, not peak FLOP/s. Performance
// modeling of production hardware lives in internal/platform.
package tensor

import "fmt"

// Tensor is a dense, row-major float32 matrix of shape [Rows x Cols].
// Recommendation inference is dominated by 2-D operands (a batch of feature
// vectors), so Tensor is fixed at rank 2; higher-rank data (e.g. GRU
// sequences) is represented as slices of Tensors.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed tensor of shape [rows x cols].
func New(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape [%d x %d]", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a [rows x cols] tensor.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if rows*cols != len(data) {
		panic(fmt.Sprintf("tensor: shape [%d x %d] incompatible with %d elements", rows, cols, len(data)))
	}
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape [%d x %d]", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float32 { return t.Data[r*t.Cols+c] }

// Set assigns the element at (r, c).
func (t *Tensor) Set(r, c int, v float32) { t.Data[r*t.Cols+c] = v }

// Row returns row r as a slice aliasing the tensor's storage.
func (t *Tensor) Row(r int) []float32 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool { return t.Rows == o.Rows && t.Cols == o.Cols }

// String renders the shape, not the contents, keeping logs readable.
func (t *Tensor) String() string { return fmt.Sprintf("Tensor[%dx%d]", t.Rows, t.Cols) }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// ConcatInto concatenates the given tensors along columns into dst, which
// must have the row count of the inputs and their summed column count; dst
// must not alias any input. It returns dst. This is the feature-interaction
// primitive of the generalized recommendation model (paper Fig. 2): dense and
// pooled-sparse features are concatenated before the predictor stack.
func ConcatInto(dst *Tensor, ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatInto of no tensors")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic(fmt.Sprintf("tensor: Concat row mismatch %d vs %d", t.Rows, rows))
		}
		cols += t.Cols
	}
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: ConcatInto dst shape [%dx%d], want [%dx%d]", dst.Rows, dst.Cols, rows, cols))
	}
	for r := 0; r < rows; r++ {
		out := dst.Row(r)
		off := 0
		for _, t := range ts {
			copy(out[off:off+t.Cols], t.Row(r))
			off += t.Cols
		}
	}
	return dst
}

// AddInto computes dst = a + b elementwise; dst may alias a or b.
func AddInto(dst, a, b *Tensor) *Tensor {
	mustSameShape("AddInto", a, b)
	mustSameShape("AddInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// MulInto computes the elementwise product dst = a ⊙ b; dst may alias a or b.
func MulInto(dst, a, b *Tensor) *Tensor {
	mustSameShape("MulInto", a, b)
	mustSameShape("MulInto", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
	return dst
}

// Scale multiplies every element of t by s in place and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AddInPlace accumulates b into t elementwise.
func (t *Tensor) AddInPlace(b *Tensor) {
	mustSameShape("AddInPlace", t, b)
	for i := range t.Data {
		t.Data[i] += b.Data[i]
	}
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch [%dx%d] vs [%dx%d]", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
