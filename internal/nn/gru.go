package nn

import (
	"math/rand"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// GRUCell is a standard gated recurrent unit:
//
//	z = σ(x·Wz + h·Uz + bz)
//	r = σ(x·Wr + h·Ur + br)
//	h̃ = tanh(x·Wh + (r⊙h)·Uh + bh)
//	h' = (1-z)⊙h + z⊙h̃
//
// DIEN stacks attention-weighted GRUs over user-behaviour sequences; the
// paper identifies this recurrence as DIEN's runtime bottleneck because it
// serializes over sequence positions and gains nothing from batching within
// an item.
type GRUCell struct {
	InDim, HiddenDim int
	Wz, Wr, Wh       *Linear // [in x hidden], carrying the gate biases bz, br, bh
	Uz, Ur, Uh       *Linear // [hidden x hidden], zero biases
}

// NewGRUCell creates a Xavier-initialized GRU cell.
func NewGRUCell(rng *rand.Rand, in, hidden int) *GRUCell {
	return &GRUCell{
		InDim: in, HiddenDim: hidden,
		Wz: NewLinear(rng, in, hidden, None),
		Wr: NewLinear(rng, in, hidden, None),
		Wh: NewLinear(rng, in, hidden, None),
		Uz: NewLinear(rng, hidden, hidden, None),
		Ur: NewLinear(rng, hidden, hidden, None),
		Uh: NewLinear(rng, hidden, hidden, None),
	}
}

// Step advances the recurrence by one position: x is [batch x in], h is
// [batch x hidden]; the returned hidden state is [batch x hidden].
func (g *GRUCell) Step(x, h *tensor.Tensor) *tensor.Tensor {
	return g.stepInto(nil, x, h, 1, false, tensor.New(h.Rows, h.Cols))
}

// stepInto advances the recurrence writing the next hidden state into out,
// which must not alias x or h. Gate scratch comes from ar (heap when nil)
// and is reclaimed before returning, so a T-step sequence holds at most one
// step's worth of arena scratch. The kernel sequence mirrors the allocating
// Step exactly — two separate GEMMs per gate combined elementwise — so
// results are bit-identical.
func (g *GRUCell) stepInto(ar *tensor.Arena, x, h *tensor.Tensor, attn float32, weighted bool, out *tensor.Tensor) *tensor.Tensor {
	var m tensor.Mark
	if ar != nil {
		m = ar.Mark()
	}
	rows, hd := h.Rows, h.Cols

	// Every gate buffer is fully overwritten by its GEMM before any read.
	z := allocUninit(ar, rows, hd)
	tensor.FCInto(z, x, g.Wz.w, g.Wz.B, false)
	t := allocUninit(ar, rows, hd)
	tensor.FCInto(t, h, g.Uz.w, g.Uz.B, false)
	Sigmoid.Apply(tensor.AddInto(z, z, t))

	r := allocUninit(ar, rows, hd)
	tensor.FCInto(r, x, g.Wr.w, g.Wr.B, false)
	tensor.FCInto(t, h, g.Ur.w, g.Ur.B, false)
	Sigmoid.Apply(tensor.AddInto(r, r, t))

	cand := allocUninit(ar, rows, hd)
	tensor.FCInto(cand, x, g.Wh.w, g.Wh.B, false)
	rh := tensor.MulInto(r, r, h) // r is dead after this; reuse it for r⊙h
	tensor.FCInto(t, rh, g.Uh.w, g.Uh.B, false)
	Tanh.Apply(tensor.AddInto(cand, cand, t))

	// float32(…) rounds each product before its add on every architecture
	// (arm64 would otherwise fuse them; see tensor.Backend).
	if weighted {
		for i := range out.Data {
			zv := float32(attn * z.Data[i])
			out.Data[i] = float32((1-zv)*h.Data[i]) + float32(zv*cand.Data[i])
		}
	} else {
		for i := range out.Data {
			zv := z.Data[i]
			out.Data[i] = float32((1-zv)*h.Data[i]) + float32(zv*cand.Data[i])
		}
	}
	if ar != nil {
		ar.Release(m)
	}
	return out
}

// FLOPsPerStepPerItem returns the FLOPs one sequence position costs one
// batch item: six GEMV-equivalent products plus elementwise gate math.
func (g *GRUCell) FLOPsPerStepPerItem() int64 {
	gemm := 2 * int64(g.InDim) * int64(g.HiddenDim) * 3    // Wz, Wr, Wh
	rec := 2 * int64(g.HiddenDim) * int64(g.HiddenDim) * 3 // Uz, Ur, Uh
	elem := 10 * int64(g.HiddenDim)                        // gates + blend
	return gemm + rec + elem
}

// GRU runs a GRUCell over per-item sequences. Each sequence is a [T x in]
// tensor; sequences may have different lengths. The result is the final
// hidden state per item, shape [batch x hidden].
type GRU struct {
	Cell *GRUCell
}

// NewGRU creates a GRU over a fresh cell.
func NewGRU(rng *rand.Rand, in, hidden int) *GRU {
	return &GRU{Cell: NewGRUCell(rng, in, hidden)}
}

// Forward consumes one sequence per batch item and returns the final hidden
// states as a [len(seqs) x hidden] tensor. Items are processed one at a
// time because production sequences are ragged; the recurrence itself is the
// serial bottleneck either way.
func (g *GRU) Forward(seqs []*tensor.Tensor) *tensor.Tensor {
	return g.ForwardInto(nil, seqs)
}

// ForwardInto is Forward with all recurrence state allocated from ar (heap
// when ar is nil). The hidden state ping-pongs between two arena buffers
// per item; per-step gate scratch is reclaimed inside stepInto.
func (g *GRU) ForwardInto(ar *tensor.Arena, seqs []*tensor.Tensor) *tensor.Tensor {
	if len(seqs) == 0 {
		panic("nn: GRU.Forward with empty batch")
	}
	return g.forwardInto(ar, seqs, nil)
}

// ForwardWeighted runs the attentional recurrence (AUGRU): weights[i][t]
// scales the update gate at position t of item i's sequence. weights must
// match the sequence shapes exactly.
func (g *GRU) ForwardWeighted(seqs []*tensor.Tensor, weights [][]float32) *tensor.Tensor {
	return g.ForwardWeightedInto(nil, seqs, weights)
}

// ForwardWeightedInto is ForwardWeighted with all recurrence state
// allocated from ar (heap when ar is nil).
func (g *GRU) ForwardWeightedInto(ar *tensor.Arena, seqs []*tensor.Tensor, weights [][]float32) *tensor.Tensor {
	if len(seqs) == 0 {
		panic("nn: GRU.ForwardWeighted with empty batch")
	}
	if len(weights) != len(seqs) {
		panic("nn: GRU.ForwardWeighted weights batch mismatch")
	}
	return g.forwardInto(ar, seqs, weights)
}

// forwardInto runs the recurrence; weights == nil selects the plain GRU.
func (g *GRU) forwardInto(ar *tensor.Arena, seqs []*tensor.Tensor, weights [][]float32) *tensor.Tensor {
	out := alloc(ar, len(seqs), g.Cell.HiddenDim)
	for i, seq := range seqs {
		if weights != nil && len(weights[i]) != seq.Rows {
			panic("nn: GRU.ForwardWeighted weights length mismatch")
		}
		var m tensor.Mark
		if ar != nil {
			m = ar.Mark()
		}
		h := alloc(ar, 1, g.Cell.HiddenDim)           // initial state: zeros
		hNext := allocUninit(ar, 1, g.Cell.HiddenDim) // fully written each step
		for t := 0; t < seq.Rows; t++ {
			x := view(ar, 1, seq.Cols, seq.Row(t))
			if weights != nil {
				g.Cell.stepInto(ar, x, h, weights[i][t], true, hNext)
			} else {
				g.Cell.stepInto(ar, x, h, 1, false, hNext)
			}
			h, hNext = hNext, h
		}
		copy(out.Row(i), h.Row(0))
		if ar != nil {
			ar.Release(m)
		}
	}
	return out
}
