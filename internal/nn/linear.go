package nn

import (
	"fmt"
	"math/rand"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// alloc returns a zeroed [rows x cols] tensor from ar, or from the heap
// when ar is nil. Every layer's allocating Forward is a thin wrapper over
// its ForwardInto variant through this helper, so both paths execute the
// same kernels in the same order and produce bit-identical results.
func alloc(ar *tensor.Arena, rows, cols int) *tensor.Tensor {
	if ar == nil {
		return tensor.New(rows, cols)
	}
	return ar.NewTensor(rows, cols)
}

// allocUninit is alloc for destinations the caller fully overwrites before
// reading, skipping the arena's zero fill (the heap path stays zeroed —
// tensor.New is how Go allocates anyway).
func allocUninit(ar *tensor.Arena, rows, cols int) *tensor.Tensor {
	if ar == nil {
		return tensor.New(rows, cols)
	}
	return ar.NewTensorUninit(rows, cols)
}

// view wraps data in a [rows x cols] tensor header: pooled from ar, or a
// fresh FromSlice header when ar is nil.
func view(ar *tensor.Arena, rows, cols int, data []float32) *tensor.Tensor {
	if ar == nil {
		return tensor.FromSlice(rows, cols, data)
	}
	return ar.View(rows, cols, data)
}

// Linear is a fully-connected layer: y = x·W + b followed by an activation.
// The weights live only as a tensor.Panel — the strip layout the FC kernels
// stream, built once at construction and immutable afterwards — on every
// backend; Weights and SetWeights convert from and to row-major form.
type Linear struct {
	w   *tensor.Panel  // [in x out]
	B   *tensor.Tensor // [1 x out]
	Act Activation
}

// NewLinear creates a Xavier-initialized fully-connected layer.
func NewLinear(rng *rand.Rand, in, out int, act Activation) *Linear {
	return &Linear{
		w:   tensor.XavierPanel(rng, in, out),
		B:   tensor.New(1, out),
		Act: act,
	}
}

// Weights returns a row-major [in x out] copy of the layer's weights.
func (l *Linear) Weights() *tensor.Tensor { return l.w.Unpack() }

// SetWeights replaces the layer's weights with a packed copy of the
// row-major [in x out] tensor w. It must not run concurrently with a forward
// pass.
func (l *Linear) SetWeights(w *tensor.Tensor) {
	if w.Rows != l.In() || w.Cols != l.Out() {
		panic(fmt.Sprintf("nn: SetWeights shape [%dx%d], want [%dx%d]", w.Rows, w.Cols, l.In(), l.Out()))
	}
	l.w = tensor.PackPanel(w)
}

// In returns the input width of the layer.
func (l *Linear) In() int { return l.w.Rows }

// Out returns the output width of the layer.
func (l *Linear) Out() int { return l.w.Cols }

// Forward computes the layer output for a [batch x in] input.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardInto(nil, x)
}

// ForwardInto computes the layer output for a [batch x in] input, writing
// into scratch allocated from ar (heap when ar is nil). The result is valid
// until the arena is reset.
func (l *Linear) ForwardInto(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	out := allocUninit(ar, x.Rows, l.Out()) // FCInto fully overwrites
	relu := l.Act == ReLU
	tensor.FCInto(out, x, l.w, l.B, relu) // bias, GEMM and ReLU in one pass
	if relu {
		return out
	}
	return l.Act.Apply(out)
}

// FLOPsPerItem returns the floating-point operations per batch item:
// 2·in·out for the GEMM (multiply + add) plus the bias add.
func (l *Linear) FLOPsPerItem() int64 {
	return 2*int64(l.In())*int64(l.Out()) + int64(l.Out())
}

// WeightBytes returns the parameter footprint in bytes (float32 weights and
// biases). The CPU cache-contention model uses the aggregate MLP footprint.
func (l *Linear) WeightBytes() int64 {
	return 4 * (int64(l.In())*int64(l.Out()) + int64(l.Out()))
}

// MLP is a stack of fully-connected layers, the "DNN-stack" building block
// of the generalized recommendation model (paper Fig. 2). Hidden layers use
// a shared activation; the final layer uses its own (typically Sigmoid for
// CTR heads, None for intermediate feature stacks).
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths. sizes lists the input
// width followed by each layer's output width, e.g. {256, 128, 32} builds
// the paper's "256-128-32" notation with input width 256. hidden is applied
// to all layers except the last, which uses final.
func NewMLP(rng *rand.Rand, sizes []int, hidden, final Activation) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least input and one layer, got %v", sizes))
	}
	m := &MLP{Layers: make([]*Linear, 0, len(sizes)-1)}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i == len(sizes)-2 {
			act = final
		}
		m.Layers = append(m.Layers, NewLinear(rng, sizes[i], sizes[i+1], act))
	}
	return m
}

// In returns the MLP input width.
func (m *MLP) In() int { return m.Layers[0].In() }

// Out returns the MLP output width.
func (m *MLP) Out() int { return m.Layers[len(m.Layers)-1].Out() }

// Forward runs the stack on a [batch x in] input.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardInto(nil, x)
}

// ForwardInto runs the stack on a [batch x in] input with every
// intermediate allocated from ar (heap when ar is nil). Intermediates stay
// allocated until the arena is reset or released past a caller-held mark —
// per-item callers (attention scoring, GRU steps) bracket the call with
// Mark/Release to bound scratch growth.
func (m *MLP) ForwardInto(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.ForwardInto(ar, x)
	}
	return x
}

// FLOPsPerItem sums the per-item FLOPs of all layers.
func (m *MLP) FLOPsPerItem() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.FLOPsPerItem()
	}
	return total
}

// WeightBytes sums the parameter footprint of all layers.
func (m *MLP) WeightBytes() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.WeightBytes()
	}
	return total
}
