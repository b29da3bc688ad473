package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Differential coverage of PoolSum. One oracle for every backend: the naive
// loop below, compared by bits — pooling has no multiplies and one fixed add
// order, so there is no tolerance tier here. The test names carry "Pool" so
// every CI kernel-backend leg selects them.

// refPoolSum is the contract written out: each element from +0, one add per
// lookup in list order.
func refPoolSum(table []float32, dim int, lists [][]int) []float32 {
	out := make([]float32, len(lists)*dim)
	for i, idxs := range lists {
		for _, idx := range idxs {
			for j := 0; j < dim; j++ {
				out[i*dim+j] += table[idx*dim+j]
			}
		}
	}
	return out
}

// onePayloadPerColumn rewrites the NaNs and infinities of a [rows x dim] table
// so that no sum can bring two different NaNs together — the one case PoolSum's
// contract leaves open, because which payload an add of two NaNs keeps depends
// on its operand order, and the Go compiler is free to commute a scalar add.
// Even columns keep NaNs, all with the column's own pattern (sign, payload,
// quiet or signalling by column), and no infinities; odd columns keep
// infinities of both signs (their meeting makes the default NaN, the only one
// there) and no NaNs.
func onePayloadPerColumn(table []float32, dim int) {
	for i, v := range table {
		j := i % dim
		nan, inf := v != v, math.IsInf(float64(v), 0)
		switch {
		case j%2 == 0 && nan:
			bits := 0x7f800000 | uint32(j/2%2)<<31 | uint32(j/4%2)<<22 | uint32(j+1)
			table[i] = math.Float32frombits(bits)
		case j%2 == 0 && inf:
			table[i] = float32(math.Copysign(math.MaxFloat32, float64(v)))
		case j%2 == 1 && nan:
			table[i] = float32(math.Inf(int(math.Float32bits(v)>>31)*-2 + 1))
		}
	}
}

// saltedTable draws a [rows x dim] table with about one element in sixteen
// replaced by a special: signed zeros, NaNs with payloads, infinities,
// denormals, extremes.
func saltedTable(rng *rand.Rand, rows, dim int) []float32 {
	table := make([]float32, rows*dim)
	for i := range table {
		table[i] = float32(rng.NormFloat64())
	}
	sprinkleSpecials(rng, table)
	onePayloadPerColumn(table, dim)
	return table
}

var (
	poolDims    = []int{1, 7, 8, 9, 16, 24, 31, 32, 33, 36, 64, 100}
	poolLengths = []int{0, 1, 7, 8, 9, 15, 16, 17, 80}
)

// poolBatches returns, for a table of the given height, one uniform batch per
// list length and one ragged batch holding every length with an empty list
// first, last and in between. Indices repeat (a list of 80 from 23 rows must).
func poolBatches(rng *rand.Rand, rows int) [][][]int {
	draw := func(n int) []int {
		if n == 0 {
			return nil // a nil base pointer the kernel must not touch
		}
		idxs := make([]int, n)
		for j := range idxs {
			idxs[j] = rng.Intn(rows)
		}
		return idxs
	}
	var batches [][][]int
	ragged := [][]int{nil}
	for k, n := range poolLengths {
		batches = append(batches, [][]int{draw(n), draw(n), draw(n)})
		ragged = append(ragged, draw(n))
		if k%3 == 1 {
			ragged = append(ragged, []int{})
		}
	}
	ragged = append(ragged, draw(0))
	rng.Shuffle(len(ragged)-2, func(a, b int) { ragged[1+a], ragged[1+b] = ragged[1+b], ragged[1+a] })
	return append(batches, ragged)
}

func TestPoolSumBitIdenticalToReferenceAllBackends(t *testing.T) {
	for _, bk := range Backends() {
		pinBackend(t, bk)
		rng := rand.New(rand.NewSource(61))
		for _, dim := range poolDims {
			const rows = 23
			table := saltedTable(rng, rows, dim)
			for b, lists := range poolBatches(rng, rows) {
				want := refPoolSum(table, dim, lists)
				for _, flush := range []bool{false, true} {
					name := fmt.Sprintf("PoolSum(%v, dim %d, batch %d, flush %v)", bk, dim, b, flush)
					dst, check := guarded(t, "dst", len(lists)*dim, flush)
					for i := range dst {
						dst[i] = 42
					}
					if l, p := PoolSum(dst, table, dim, lists); l != -1 || p != -1 {
						t.Fatalf("%s = (%d, %d) on valid indices", name, l, p)
					}
					sameBits(t, name, dst, want)
					check()
				}
			}
		}
	}
}

// Every index is checked before its row is read, and the first offender in
// list order is the one reported: a bad index at every position of a 24-long
// list in the first, a middle and the last item, with a second bad index
// behind it that must never be reached. dim 4 runs the scalar tail alone under
// the vector backends, 36 the kernel and the tail, 64 two kernel passes.
func TestPoolSumReportsFirstBadIndexAllBackends(t *testing.T) {
	const rows, length = 29, 24
	for _, bk := range Backends() {
		pinBackend(t, bk)
		rng := rand.New(rand.NewSource(62))
		for _, dim := range []int{4, 32, 36, 64} {
			table := saltedTable(rng, rows, dim)
			lists := make([][]int, 5)
			for i := range lists {
				lists[i] = make([]int, length)
				for j := range lists[i] {
					lists[i][j] = rng.Intn(rows)
				}
			}
			lists[1] = nil // an empty list in front of the middle item
			dst := make([]float32, len(lists)*dim)
			last := len(lists) - 1
			for _, item := range []int{0, 2, last} {
				for pos := 0; pos < length; pos++ {
					for _, bad := range []int{-1, rows, math.MaxInt64, math.MinInt64} {
						keep, keepLast := lists[item][pos], lists[last][length-1]
						lists[last][length-1] = rows + 1
						lists[item][pos] = bad
						if l, p := PoolSum(dst, table, dim, lists); l != item || p != pos {
							t.Fatalf("PoolSum(%v, dim %d) with %d at [%d][%d] reported (%d, %d)", bk, dim, bad, item, pos, l, p)
						}
						lists[item][pos], lists[last][length-1] = keep, keepLast
					}
				}
			}
			if l, p := PoolSum(dst, table, dim, lists); l != -1 || p != -1 {
				t.Fatalf("PoolSum(%v, dim %d) = (%d, %d) after the bad indices were restored", bk, dim, l, p)
			}
		}
	}
}

func TestPoolSumShapeChecks(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	lists := [][]int{{0}, {1}}
	mustPanic("dim 0", func() { PoolSum(nil, nil, 0, nil) })
	mustPanic("short dst", func() { PoolSum(make([]float32, 7), make([]float32, 8), 4, lists) })
	mustPanic("ragged table", func() { PoolSum(make([]float32, 8), make([]float32, 9), 4, lists) })
	// No rows: every index is out of range, and no list is still a valid call.
	for _, bk := range Backends() {
		pinBackend(t, bk)
		if l, p := PoolSum(make([]float32, 16), nil, 8, lists); l != 0 || p != 0 {
			t.Errorf("PoolSum(%v) from an empty table reported (%d, %d), want (0, 0)", bk, l, p)
		}
		if l, p := PoolSum(nil, make([]float32, 16), 8, nil); l != -1 || p != -1 {
			t.Errorf("PoolSum(%v) of no lists reported (%d, %d)", bk, l, p)
		}
	}
}

// The table is shared and only read: eight goroutines pool their own lists
// from one table into their own rows (run under -race in CI).
func TestPoolSumConcurrentSharedTable(t *testing.T) {
	const rows, dim, workers = 211, 32, 8
	table := saltedTable(rand.New(rand.NewSource(63)), rows, dim)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(64 + w)))
			for round := 0; round < 20; round++ {
				for _, lists := range poolBatches(rng, rows) {
					dst := make([]float32, len(lists)*dim)
					if l, p := PoolSum(dst, table, dim, lists); l != -1 {
						t.Errorf("worker %d: PoolSum reported (%d, %d) on valid indices", w, l, p)
						return
					}
					want := refPoolSum(table, dim, lists)
					for i := range want {
						if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
							t.Errorf("worker %d: element %d = %v, want %v", w, i, dst[i], want[i])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzPoolSumVsReference drives PoolSum with a fuzzer-chosen width, height
// and batch, raw table bits (denormals, infinities and, one pattern to a
// column, NaNs as they come) and index bytes of which 0xff and 0xfe stand for -1 and rows: every backend must
// return the reference's bits, or the first bad position in list order.
func FuzzPoolSumVsReference(f *testing.F) {
	f.Add([]byte{32, 10, 3}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{36, 4, 7}, []byte{0x7f, 0xc0, 0, 1, 0xff, 0x80, 0, 0, 0x7f, 0xc0, 0, 2, 0, 0, 0, 1})
	f.Add([]byte{64, 1, 2}, []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 0x3f, 0x80, 0, 0})
	f.Add([]byte{7, 30, 9}, []byte{40, 0xff, 3, 3, 0xfe, 9, 200, 100, 50, 25})
	f.Add([]byte{100, 17, 5}, []byte{0xbf, 0x80, 0, 0, 0x7f, 0x80, 0, 0, 0xff, 0x80, 0, 0, 33})
	f.Fuzz(func(t *testing.T, shape, data []byte) {
		if len(shape) < 3 || len(data) == 0 {
			t.Skip()
		}
		dim := 1 + int(shape[0])%100
		rows := 1 + int(shape[1])%40
		n := int(shape[2]) % 12
		table := make([]float32, rows*dim)
		for i := range table {
			var bits uint32
			for b := 0; b < 4; b++ {
				bits = bits<<8 | uint32(data[(4*i+b)%len(data)])
			}
			table[i] = math.Float32frombits(bits)
		}
		onePayloadPerColumn(table, dim)
		// List lengths, then indices, come from the same bytes read backwards.
		at := len(data)
		next := func() byte {
			if at == 0 {
				at = len(data)
			}
			at--
			return data[at]
		}
		lists := make([][]int, n)
		wantList, wantPos := -1, -1
		for i := range lists {
			lists[i] = make([]int, int(next())%41)
			for j := range lists[i] {
				switch b := next(); b {
				case 0xff:
					lists[i][j] = -1
				case 0xfe:
					lists[i][j] = rows
				default:
					lists[i][j] = int(b) % rows
				}
				if wantList < 0 && uint(lists[i][j]) >= uint(rows) {
					wantList, wantPos = i, j
				}
			}
		}
		var want []float32
		if wantList < 0 {
			want = refPoolSum(table, dim, lists)
		}
		prev := ActiveBackend()
		defer SetBackend(prev)
		for _, bk := range Backends() {
			SetBackend(bk)
			dst := make([]float32, n*dim)
			if l, p := PoolSum(dst, table, dim, lists); l != wantList || p != wantPos {
				t.Fatalf("PoolSum(%v,fuzz) reported (%d, %d), want (%d, %d)", bk, l, p, wantList, wantPos)
			}
			if want != nil {
				sameBits(t, "PoolSum("+bk.String()+",fuzz)", dst, want)
			}
		}
	})
}

// BenchmarkPoolSumBackends times the kernel at the zoo's two pooled shapes
// (RMC1/RMC2: 80 lookups per item; RMC3: 20), batch 256 over a 10,000-row
// table of width 32 — 1.28 MB, resident in L2 for the pass as in a forward
// pass — and reports nanoseconds per lookup.
func BenchmarkPoolSumBackends(b *testing.B) {
	const rows, dim, batch = 10000, 32, 256
	for _, bk := range []Backend{Scalar, AVX2} { // AVX512 runs AVX2's kernel
		for _, lookups := range []int{80, 20} {
			b.Run(fmt.Sprintf("%v/l%d", bk, lookups), func(b *testing.B) {
				pinBackend(b, bk)
				rng := rand.New(rand.NewSource(1))
				table := RandUniform(rng, rows, dim, 1).Data
				lists := make([][]int, batch)
				for i := range lists {
					lists[i] = make([]int, lookups)
					for j := range lists[i] {
						lists[i][j] = rng.Intn(rows)
					}
				}
				dst := make([]float32, batch*dim)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					PoolSum(dst, table, dim, lists)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*lookups), "ns/lookup")
			})
		}
	}
}
