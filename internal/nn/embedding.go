package nn

import (
	"fmt"
	"math/rand"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// Pooling identifies how the embedding vectors gathered for one sparse
// feature are combined into a fixed-width output (paper Fig. 2's "sparse
// feature pooling" operator).
type Pooling int

// Supported pooling operators. PoolConcat requires a fixed lookup count per
// item (one-hot features concatenate a single vector); PoolSum handles
// multi-hot features with any lookup count.
const (
	PoolSum Pooling = iota
	PoolConcat
)

// String implements fmt.Stringer.
func (p Pooling) String() string {
	switch p {
	case PoolSum:
		return "sum"
	case PoolConcat:
		return "concat"
	default:
		return fmt.Sprintf("Pooling(%d)", int(p))
	}
}

// RowStore is the read surface of a pluggable embedding-row backend (the
// internal/embstore stores satisfy it structurally; nn stays free of that
// dependency). Implementations must support concurrent Row calls; returned
// slices are read-only for the caller.
type RowStore interface {
	Rows() int
	Dim() int
	Row(i int) []float32
}

// IndexError reports a sparse index outside its table's row range. Lookup
// paths panic with a *IndexError (a corrupted query is a programming error,
// not an input condition), so recovery layers and tests can distinguish it
// from an arbitrary slice-bounds failure and name the offending table/row.
type IndexError struct {
	Table int // table index within the model
	Index int // the offending row index
	Rows  int // the table's row count
}

// Error implements the error interface.
func (e *IndexError) Error() string {
	return fmt.Sprintf("nn: embedding index %d out of range [0,%d) in table %d", e.Index, e.Rows, e.Table)
}

// EmbeddingTable is one sparse feature's latent-vector table. Production
// tables hold up to billions of rows; the default zoo scales row counts
// down while keeping lookup counts and vector dimensions faithful to
// Table I, since those are what determine per-query memory traffic. At
// scale, a table is instead backed by a pluggable RowStore (mmap'd files,
// on-demand synthesis, hot-row caches — see internal/embstore), restoring
// production-sized row counts without materializing dense weights.
//
// Exactly one of Weights and Store is non-nil. The Weights path is the
// historical hot path and is preserved verbatim (including its
// memory-level-parallel pooling); the Store path gathers through the
// interface, serially per item, with bit-identical accumulation order.
type EmbeddingTable struct {
	Weights *tensor.Tensor // [rows x dim], dense in-memory backend
	Store   RowStore       // at-scale backend (nil when Weights-backed)
	ID      int            // table index within the model, for IndexError
}

// NewEmbeddingTable creates a dense in-memory table of shape [rows x dim]
// with small-normal initialization.
func NewEmbeddingTable(rng *rand.Rand, rows, dim int) *EmbeddingTable {
	return &EmbeddingTable{Weights: tensor.RandNormal(rng, rows, dim, 0.05)}
}

// NewStoreEmbeddingTable creates a table backed by st. id is the table's
// index within its model, used in bounds-error reports.
func NewStoreEmbeddingTable(id int, st RowStore) *EmbeddingTable {
	return &EmbeddingTable{Store: st, ID: id}
}

// Rows returns the number of categories in the table (for a sharded store,
// the rows this instance serves).
func (e *EmbeddingTable) Rows() int {
	if e.Weights != nil {
		return e.Weights.Rows
	}
	return e.Store.Rows()
}

// Dim returns the latent dimension.
func (e *EmbeddingTable) Dim() int {
	if e.Weights != nil {
		return e.Weights.Cols
	}
	return e.Store.Dim()
}

// CheckIndex validates one sparse index against the table's row range,
// returning a *IndexError naming the table when it is out of bounds.
func (e *EmbeddingTable) CheckIndex(idx int) error {
	if uint(idx) >= uint(e.Rows()) {
		return &IndexError{Table: e.ID, Index: idx, Rows: e.Rows()}
	}
	return nil
}

// mustIndex is CheckIndex for lookup paths whose signatures cannot carry an
// error: it panics with the typed *IndexError.
func (e *EmbeddingTable) mustIndex(idx int) {
	if err := e.CheckIndex(idx); err != nil {
		panic(err)
	}
}

// row returns row idx from whichever backend is active. Callers have
// already bounds-checked idx via mustIndex.
func (e *EmbeddingTable) row(idx int) []float32 {
	if e.Weights != nil {
		return e.Weights.Row(idx)
	}
	return e.Store.Row(idx)
}

// Lookup gathers the rows at the given indices into a [len(indices) x dim]
// tensor. Indices must be within range; out-of-range access indicates a
// corrupted query and panics with a *IndexError.
func (e *EmbeddingTable) Lookup(indices []int) *tensor.Tensor {
	return e.LookupInto(nil, indices)
}

// LookupInto gathers the rows at the given indices into a
// [len(indices) x dim] tensor allocated from ar (heap when ar is nil).
func (e *EmbeddingTable) LookupInto(ar *tensor.Arena, indices []int) *tensor.Tensor {
	out := allocUninit(ar, len(indices), e.Dim()) // every row is copied below
	if w := e.Weights; w != nil {
		for i, idx := range indices {
			e.mustIndex(idx)
			copy(out.Row(i), w.Row(idx))
		}
		return out
	}
	for i, idx := range indices {
		e.mustIndex(idx)
		copy(out.Row(i), e.Store.Row(idx))
	}
	return out
}

// sinkHole observes a pooling pass's local prefetch accumulator through an
// opaque call, so the compiler cannot eliminate the prefetch touches as
// dead loads. The accumulator itself stays per-call — concurrent forwards
// share no state here.
//
//go:noinline
func sinkHole(*float32) {}

// EmbeddingBag is the fused lookup-and-pool operator: for each batch item it
// gathers that item's indices and reduces them with the configured pooling.
// This mirrors Caffe2's SparseLengthsSum, which the paper identifies as the
// dominant operator for the embedding-heavy DLRM configurations.
type EmbeddingBag struct {
	Table *EmbeddingTable
	Pool  Pooling
}

// NewEmbeddingBag creates an embedding bag over a fresh table.
func NewEmbeddingBag(rng *rand.Rand, rows, dim int, pool Pooling) *EmbeddingBag {
	return &EmbeddingBag{Table: NewEmbeddingTable(rng, rows, dim), Pool: pool}
}

// Forward pools the per-item index lists into a [batch x outDim] tensor.
// For PoolSum, outDim = dim. For PoolConcat, every item must supply the same
// number of indices L and outDim = L·dim.
func (b *EmbeddingBag) Forward(indices [][]int) *tensor.Tensor {
	return b.ForwardInto(nil, indices)
}

// ForwardInto pools the per-item index lists into a [batch x outDim] tensor
// allocated from ar (heap when ar is nil). The gather and the pool are
// fused: each looked-up row accumulates (or copies) directly into the
// output with no intermediate per-lookup tensor.
func (b *EmbeddingBag) ForwardInto(ar *tensor.Arena, indices [][]int) *tensor.Tensor {
	if len(indices) == 0 {
		panic("nn: EmbeddingBag.Forward with empty batch")
	}
	dim := b.Table.Dim()
	switch b.Pool {
	case PoolSum:
		out := alloc(ar, len(indices), dim)
		w := b.Table.Weights
		if w == nil {
			// Store-backed gather: rows come through the RowStore interface
			// (mmap page faults, cache probes, on-demand synthesis), pooled
			// serially per item in list order — the same element-wise
			// accumulation order as the dense path below, so results are
			// bit-identical for equal row content.
			st := b.Table.Store
			for i, idxs := range indices {
				row := out.Row(i)
				for _, idx := range idxs {
					b.Table.mustIndex(idx)
					tensor.AddTo(row, st.Row(idx)[:len(row)])
				}
			}
			return out
		}
		var prefetch float32
		rows := uint(w.Rows) // dense path: the row count is fixed for the call
		for i, idxs := range indices {
			row := out.Row(i)
			// Validate the whole item up front: the pooling loop below (and
			// its prefetch touches) may then index the weights unchecked.
			for _, idx := range idxs {
				if uint(idx) >= rows {
					panic(&IndexError{Table: b.Table.ID, Index: idx, Rows: w.Rows})
				}
			}
			// Pool eight gathered rows per pass: the output row stays in
			// registers across them and the eight random-row reads miss the
			// cache concurrently instead of serially — memory-level
			// parallelism is the whole game for production-scale lookup
			// counts (Fig. 1(b)), where every gather is a likely miss.
			// Each element still accumulates its lookups one at a time in
			// list order, so results are bit-identical to serial pooling.
			l := 0
			for ; l+8 <= len(idxs); l += 8 {
				if l+16 <= len(idxs) {
					// Touch the next group's rows now so their cache misses
					// overlap this group's arithmetic (poor-Go software
					// prefetch; sinkHole below keeps the loads live).
					prefetch += w.Data[idxs[l+8]*dim] + w.Data[idxs[l+9]*dim] +
						w.Data[idxs[l+10]*dim] + w.Data[idxs[l+11]*dim] +
						w.Data[idxs[l+12]*dim] + w.Data[idxs[l+13]*dim] +
						w.Data[idxs[l+14]*dim] + w.Data[idxs[l+15]*dim]
				}
				// tensor.AddTo8 pools the eight rows in one fused pass on the
				// active kernel backend; every backend applies the same
				// per-element source order, so pooling stays bit-identical to
				// serial accumulation (and across backends).
				tensor.AddTo8(row,
					w.Row(idxs[l]), w.Row(idxs[l+1]),
					w.Row(idxs[l+2]), w.Row(idxs[l+3]),
					w.Row(idxs[l+4]), w.Row(idxs[l+5]),
					w.Row(idxs[l+6]), w.Row(idxs[l+7]))
			}
			for ; l < len(idxs); l++ {
				tensor.AddTo(row, w.Row(idxs[l]))
			}
		}
		sinkHole(&prefetch)
		return out
	case PoolConcat:
		l := len(indices[0])
		out := allocUninit(ar, len(indices), l*dim) // every segment is copied below
		for i, idxs := range indices {
			if len(idxs) != l {
				panic(fmt.Sprintf("nn: concat pooling requires uniform lookups, got %d and %d", l, len(idxs)))
			}
			row := out.Row(i)
			for k, idx := range idxs {
				b.Table.mustIndex(idx)
				copy(row[k*dim:(k+1)*dim], b.Table.row(idx))
			}
		}
		return out
	default:
		panic(fmt.Sprintf("nn: unknown pooling %d", int(b.Pool)))
	}
}

// BytesPerItem returns the memory traffic per batch item for the given
// lookup count: each lookup streams one dim-wide float32 vector from the
// table. This is the irregular-access traffic the paper's Fig. 1(b)
// characterizes.
func (b *EmbeddingBag) BytesPerItem(lookups int) int64 {
	return int64(lookups) * int64(b.Table.Dim()) * 4
}
