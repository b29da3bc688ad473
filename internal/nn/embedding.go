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
// Exactly one of Weights and Store is non-nil. The Weights path pools through
// tensor.PoolSum, which reads rows where they lie; the Store path gathers
// through the interface one row at a time (a RowStore row is only valid until
// the next Row call), in the same per-element accumulation order, so the two
// return the same bits for the same row content. Every lookup loop resolves
// the table's backing, height and width once per call and checks each index
// inline before the row it names is read.
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

// Lookup gathers the rows at the given indices into a [len(indices) x dim]
// tensor. Indices must be within range; out-of-range access indicates a
// corrupted query and panics with a *IndexError.
func (e *EmbeddingTable) Lookup(indices []int) *tensor.Tensor {
	return e.LookupInto(nil, indices)
}

// LookupInto gathers the rows at the given indices into a
// [len(indices) x dim] tensor allocated from ar (heap when ar is nil).
func (e *EmbeddingTable) LookupInto(ar *tensor.Arena, indices []int) *tensor.Tensor {
	dim := e.Dim()
	out := allocUninit(ar, len(indices), dim) // every row is copied below
	e.gather(out.Data, dim, len(indices), [][]int{indices})
	return out
}

// gather copies the rows each list names back to back into dst — list i at
// dst[i·l·dim:], so dst holds len(lists)·l·dim elements — resolving the
// table's backing and height once per call: the copy behind LookupInto (one
// list) and concat pooling (one list per item, every one of length l).
func (e *EmbeddingTable) gather(dst []float32, dim, l int, lists [][]int) {
	w, st, rows := e.Weights, e.Store, e.Rows()
	for i, idxs := range lists {
		if len(idxs) != l {
			panic(fmt.Sprintf("nn: concat pooling requires uniform lookups, got %d and %d", l, len(idxs)))
		}
		out := dst[i*l*dim : (i+1)*l*dim]
		for k, idx := range idxs {
			if uint(idx) >= uint(rows) {
				panic(&IndexError{Table: e.ID, Index: idx, Rows: rows})
			}
			if w != nil {
				copy(out[k*dim:(k+1)*dim], w.Data[idx*dim:])
			} else {
				copy(out[k*dim:(k+1)*dim], st.Row(idx))
			}
		}
	}
}

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
		w := b.Table.Weights
		if w == nil {
			// Store-backed gather: rows come through the RowStore interface
			// (mmap page faults, cache probes, on-demand synthesis), pooled
			// serially per item in list order — the element-wise accumulation
			// order of tensor.PoolSum, so results are bit-identical for equal
			// row content.
			out := alloc(ar, len(indices), dim)
			st, rows := b.Table.Store, b.Table.Store.Rows()
			for i, idxs := range indices {
				row := out.Row(i)
				for _, idx := range idxs {
					if uint(idx) >= uint(rows) {
						panic(&IndexError{Table: b.Table.ID, Index: idx, Rows: rows})
					}
					tensor.AddTo(row, st.Row(idx)[:dim])
				}
			}
			return out
		}
		// The kernel writes every output element from its own accumulators,
		// so the destination is never zeroed, and it checks every index before
		// the load: a bad one comes back as a position, not a fault.
		out := allocUninit(ar, len(indices), dim)
		if i, p := tensor.PoolSum(out.Data, w.Data, dim, indices); i >= 0 {
			panic(&IndexError{Table: b.Table.ID, Index: indices[i][p], Rows: w.Rows})
		}
		return out
	case PoolConcat:
		l := len(indices[0])
		out := allocUninit(ar, len(indices), l*dim) // every segment is copied below
		b.Table.gather(out.Data, dim, l, indices)
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
