package model

import (
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// Scratch is the per-worker working memory of the real-execution inference
// path. A worker owns one Scratch and passes it to every
// Model.ForwardInto / Model.NewInputSampled call; in steady state a forward
// pass then performs no heap allocation — every intermediate tensor comes
// from the scratch arena, reusable slice headers are kept across calls, and
// the input buffers are refilled in place.
//
// Ownership rules (see docs/ARCHITECTURE.md, "The compute stack"):
//
//   - A Scratch must never be shared between goroutines. The live CPU pool
//     allocates one per worker; the offline RealEngine owns one; the
//     accelerator lane draws them from a sync.Pool.
//   - Tensors returned by ForwardInto alias the arena and are valid only
//     until the next ForwardInto call on the same Scratch (which resets the
//     arena). Callers that retain results across calls must Clone them.
//   - Inputs returned by NewInputSampled (the lanes' draw) and NewInputInto
//     (the reference stream's) alias buffers owned by the Scratch, not the
//     arena, and are valid until the next call of either.
type Scratch struct {
	ar tensor.Arena

	// Reused across forward passes to keep assembleFeatures allocation-free.
	parts   []*tensor.Tensor
	history []*tensor.Tensor
	scores  [][]float32

	// Reused input buffers for NewInputSampled / NewInputInto.
	input *Input
}

// NewScratch returns an empty Scratch; buffers grow to the model's
// steady-state high-water mark over the first few passes.
func NewScratch() *Scratch { return &Scratch{} }

// MinSplitRows is the smallest per-part batch worth fanning out in
// ForwardSplit: below it goroutine handoff outweighs the forward-pass work.
const MinSplitRows = 64

// Arena exposes the scratch's tensor arena for callers composing their own
// arena-allocated operators on top of a forward pass.
func (s *Scratch) Arena() *tensor.Arena { return &s.ar }
