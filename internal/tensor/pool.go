package tensor

import "fmt"

// PoolSum is the embedding bag's gather-and-pool kernel (Caffe2's
// SparseLengthsSum): table is a row-major [rows x dim] matrix, and row i of
// dst — [len(lists) x dim], every element overwritten — becomes the
// element-wise sum of the table rows lists[i] names. An empty list pools to
// +0.
//
// Two contracts hold on every backend:
//
//   - Order. Each output element starts from +0 and takes its list's rows one
//     add at a time in list order — the order of a zeroed row followed by
//     AddTo per lookup. Pooling multiplies nothing, so vectorizing it reorders
//     nothing: Scalar, AVX2 and AVX512 return the same bits. (One case is
//     open: when two NaNs with different bits meet in one sum, which payload
//     survives depends on the add's operand order, and the Go compiler may
//     commute the scalar backend's.)
//   - Check before load. Every index is compared, unsigned, against the row
//     count before the row it names is read. PoolSum returns (-1, -1), or the
//     position lists[list][pos] of the first out-of-range index in list order,
//     having read no table row at or past it; dst is then unspecified.
//
// The table is only read, so concurrent calls may share it.
func PoolSum(dst, table []float32, dim int, lists [][]int) (list, pos int) {
	if dim <= 0 || len(table)%dim != 0 || len(dst) != len(lists)*dim {
		panic(fmt.Sprintf("tensor: PoolSum of %d lists from a %d-element table of width %d into %d elements", len(lists), len(table), dim, len(dst)))
	}
	if simdActive() && len(dst) > 0 && len(table) > 0 { // the kernel is handed the address of both
		return poolSumSIMD(dst, table, dim, lists)
	}
	return poolSumCols(dst, table, dim, 0, lists)
}

// poolSumCols is PoolSum over columns [c0, dim) of every row: the scalar
// backend's whole kernel (c0 = 0), and the vector backend's under-8-column
// tail. Eight checked lookups at a time make one AddTo8 pass over the output
// row — one load and one store of it for eight adds, eight row reads in
// flight — and each element still takes its adds one at a time in list order.
func poolSumCols(dst, table []float32, dim, c0 int, lists [][]int) (list, pos int) {
	rows := uint(len(table) / dim)
	row := func(idx int) []float32 { return table[idx*dim+c0 : (idx+1)*dim] }
	for i, idxs := range lists {
		out := dst[i*dim+c0 : (i+1)*dim]
		clear(out)
		p := 0
		for ; p+8 <= len(idxs); p += 8 {
			g := idxs[p : p+8 : p+8]
			for q, idx := range g {
				if uint(idx) >= rows {
					return i, p + q
				}
			}
			AddTo8(out, row(g[0]), row(g[1]), row(g[2]), row(g[3]), row(g[4]), row(g[5]), row(g[6]), row(g[7]))
		}
		for ; p < len(idxs); p++ {
			if uint(idxs[p]) >= rows {
				return i, p
			}
			AddTo(out, row(idxs[p]))
		}
	}
	return -1, -1
}
