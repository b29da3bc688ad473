package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// tensorStore adapts a dense tensor to the RowStore interface, standing in
// for the internal/embstore backends (which satisfy RowStore structurally).
type tensorStore struct{ t *tensor.Tensor }

func (s tensorStore) Rows() int           { return s.t.Rows }
func (s tensorStore) Dim() int            { return s.t.Cols }
func (s tensorStore) Row(i int) []float32 { return s.t.Row(i) }

// The store-backed gather paths must be bit-identical to the dense Weights
// paths when both serve the same row content — sum pooling accumulates in
// the same element order, concat and lookup copy the same rows.
func TestStoreBackedPathsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, pool := range []Pooling{PoolSum, PoolConcat} {
		dense := NewEmbeddingBag(rng, 32, 5, pool)
		stored := &EmbeddingBag{Table: NewStoreEmbeddingTable(0, tensorStore{dense.Table.Weights}), Pool: pool}

		idxRng := rand.New(rand.NewSource(10))
		indices := make([][]int, 17)
		for i := range indices {
			n := 20 // concat requires uniform lookups
			if pool == PoolSum {
				n = 1 + idxRng.Intn(30)
			}
			indices[i] = make([]int, n)
			for j := range indices[i] {
				indices[i][j] = idxRng.Intn(32)
			}
		}

		want, got := dense.Forward(indices), stored.Forward(indices)
		if want.Rows != got.Rows || want.Cols != got.Cols {
			t.Fatalf("%v: shape [%dx%d] vs [%dx%d]", pool, want.Rows, want.Cols, got.Rows, got.Cols)
		}
		for k := range want.Data {
			if math.Float32bits(want.Data[k]) != math.Float32bits(got.Data[k]) {
				t.Fatalf("%v: store-backed pooling differs at %d: %x vs %x", pool, k, math.Float32bits(want.Data[k]), math.Float32bits(got.Data[k]))
			}
		}

		lw := dense.Table.Lookup(indices[0])
		lg := stored.Table.Lookup(indices[0])
		for k := range lw.Data {
			if math.Float32bits(lw.Data[k]) != math.Float32bits(lg.Data[k]) {
				t.Fatalf("%v: store-backed lookup differs at %d", pool, k)
			}
		}
	}
}

// mustPanicIndexError runs f and requires it to panic with a *IndexError
// carrying the expected coordinates.
func mustPanicIndexError(t *testing.T, name string, table, index, rows int, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic on out-of-range index", name)
			return
		}
		err, ok := r.(error)
		if !ok {
			t.Errorf("%s: panic value %v (%T) is not an error", name, r, r)
			return
		}
		var ie *IndexError
		if !errors.As(err, &ie) {
			t.Errorf("%s: panic error %v is not a *IndexError", name, err)
			return
		}
		if ie.Table != table || ie.Index != index || ie.Rows != rows {
			t.Errorf("%s: IndexError = %+v, want table %d index %d rows %d", name, ie, table, index, rows)
		}
	}()
	f()
}

// Regression for the bounds-hardening satellite: every lookup path reports
// out-of-range sparse indices as a typed *IndexError naming the table and
// row, instead of a raw slice panic (the PoolSum fast path used to fault on
// the prefetch read of Weights.Data).
func TestOutOfRangeIndexTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sum := NewEmbeddingBag(rng, 16, 4, PoolSum)
	sum.Table.ID = 3
	concat := NewEmbeddingBag(rng, 16, 4, PoolConcat)
	stored := &EmbeddingBag{Table: NewStoreEmbeddingTable(5, tensorStore{sum.Table.Weights}), Pool: PoolSum}

	// 24 lookups exercise the 8-wide pooling groups and their prefetch.
	long := make([]int, 24)
	long[23] = 16

	mustPanicIndexError(t, "Lookup", 3, 99, 16, func() { sum.Table.Lookup([]int{1, 99}) })
	mustPanicIndexError(t, "Lookup negative", 3, -1, 16, func() { sum.Table.Lookup([]int{-1}) })
	mustPanicIndexError(t, "PoolSum dense", 3, 16, 16, func() { sum.Forward([][]int{long}) })
	mustPanicIndexError(t, "PoolConcat", 0, 16, 16, func() { concat.Forward([][]int{{1, 16}}) })
	mustPanicIndexError(t, "PoolSum store", 5, 16, 16, func() { stored.Forward([][]int{long}) })

	if err := sum.Table.CheckIndex(15); err != nil {
		t.Errorf("CheckIndex(15) = %v on a 16-row table", err)
	}
	if err := sum.Table.CheckIndex(16); err == nil {
		t.Error("CheckIndex(16) accepted on a 16-row table")
	} else if err.Error() != "nn: embedding index 16 out of range [0,16) in table 3" {
		t.Errorf("IndexError message = %q", err.Error())
	}
}

// The dense PoolSum path hands the whole batch to tensor.PoolSum and gets a
// position back: whatever the backend, a bad index at any position of a
// 24-long list in the first, a middle or the last item must surface as the
// IndexError naming that index — the first offender in list order, not a
// later one — and the table it was looked up in.
func TestEmbeddingBagPoolSumIndexErrorNamesFirstOffenderAllBackends(t *testing.T) {
	const rows, length = 16, 24
	prev := tensor.ActiveBackend()
	defer tensor.SetBackend(prev)
	for _, bk := range tensor.Backends() {
		if err := tensor.SetBackend(bk); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		for _, dim := range []int{4, 32, 36} {
			bag := NewEmbeddingBag(rng, rows, dim, PoolSum)
			bag.Table.ID = 7
			batch := make([][]int, 5)
			for i := range batch {
				batch[i] = make([]int, length)
				for j := range batch[i] {
					batch[i][j] = rng.Intn(rows)
				}
			}
			last := len(batch) - 1
			for _, item := range []int{0, 2, last} {
				for pos := 0; pos < length; pos++ {
					for k, bad := range []int{-1, rows, math.MaxInt64, math.MinInt64} {
						keep, keepLast := batch[item][pos], batch[last][length-1]
						batch[last][length-1] = rows + 1 + k // a later offender, never reached
						batch[item][pos] = bad
						mustPanicIndexError(t, bk.String(), 7, bad, rows, func() { bag.Forward(batch) })
						batch[item][pos], batch[last][length-1] = keep, keepLast
					}
				}
			}
		}
	}
}

func TestStoreTableGeometry(t *testing.T) {
	w := tensor.New(12, 6)
	e := NewStoreEmbeddingTable(2, tensorStore{w})
	if e.Rows() != 12 || e.Dim() != 6 {
		t.Fatalf("store-backed geometry %dx%d, want 12x6", e.Rows(), e.Dim())
	}
}
