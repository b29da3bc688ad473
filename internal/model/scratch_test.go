package model

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// forwardModels covers every architecture family: embedding-dominated,
// MLP-dominated with GMF, passthrough dense, multi-task, attention, AUGRU.
var forwardModels = []string{"DLRM-RMC1", "NCF", "WnD", "MT-WnD", "DIN", "DIEN"}

func sameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape [%dx%d], want [%dx%d]", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v (bit-for-bit)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// Forward (pooled scratch), ForwardInto (caller scratch, reused twice), and
// ForwardSplit (row-split across par) must agree bit for bit.
func TestForwardVariantsBitIdentical(t *testing.T) {
	for _, name := range forwardModels {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg, 1)
		in := m.NewInput(rand.New(rand.NewSource(2)), 9)
		want := m.Forward(in)

		s := NewScratch()
		for pass := 0; pass < 2; pass++ {
			sameBits(t, name+"/ForwardInto", m.ForwardInto(s, in), want)
		}

		scratches := []*Scratch{NewScratch(), NewScratch(), NewScratch()}
		for _, parts := range []int{1, 2, 3} {
			got := m.ForwardSplit(scratches, in, parts)
			sameBits(t, name+"/ForwardSplit", got, want)
		}
	}
}

// NewInputInto must consume the RNG exactly like NewInput and refill reused
// buffers to identical contents, including across size changes.
func TestNewInputIntoMatchesNewInput(t *testing.T) {
	for _, name := range []string{"DLRM-RMC1", "WnD", "DIEN"} {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg, 1)
		fresh := rand.New(rand.NewSource(7))
		reused := rand.New(rand.NewSource(7))
		s := NewScratch()
		for _, size := range []int{8, 16, 5, 16} { // grow, shrink, regrow
			want := m.NewInput(fresh, size)
			got := m.NewInputInto(s, reused, size)
			if got.Size != want.Size {
				t.Fatalf("%s: size %d, want %d", name, got.Size, want.Size)
			}
			if (got.Dense == nil) != (want.Dense == nil) {
				t.Fatalf("%s: dense presence mismatch", name)
			}
			if want.Dense != nil {
				sameBits(t, name+"/Dense", got.Dense, want.Dense)
			}
			for tt := range want.Sparse {
				for i := range want.Sparse[tt] {
					for j := range want.Sparse[tt][i] {
						if got.Sparse[tt][i][j] != want.Sparse[tt][i][j] {
							t.Fatalf("%s: index [%d][%d][%d] = %d, want %d",
								name, tt, i, j, got.Sparse[tt][i][j], want.Sparse[tt][i][j])
						}
					}
				}
			}
		}
	}
}

// The index draw is math/rand's, draw for draw: the same values as a literal
// rng.Intn loop from the same seed and the same generator state afterwards,
// for row counts on every path — 1 and the powers of two (mask), small and
// zoo-sized (one rejection in millions), 2^30+1 (about half of all draws
// rejected), the last int32, and past it (Intn's own Int63n path).
func TestFillIndicesMatchesIntnDrawForDraw(t *testing.T) {
	for _, r := range []uint64{1, 2, 3, 7, 1000, 10000, 1 << 20, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1 << 40} {
		if r > math.MaxInt {
			continue // 32-bit int
		}
		rows := int(r)
		ours, theirs := rand.New(rand.NewSource(int64(rows))), rand.New(rand.NewSource(int64(rows)))
		got := make([]int, 3000)
		fillIndices(ours, got, rows)
		for j := range got {
			if want := theirs.Intn(rows); got[j] != want {
				t.Fatalf("rows %d: draw %d = %d, rng.Intn gives %d", rows, j, got[j], want)
			}
		}
		if a, b := ours.Int63(), theirs.Int63(); a != b {
			t.Fatalf("rows %d: generator left in a different state than %d Intn calls leave it", rows, len(got))
		}
	}
}

// scriptedSource replays a fixed list of Int63 values, to put the dense draw
// on the two resampling paths a seeded generator reaches once in 2^24 draws.
type scriptedSource struct {
	vals []int64
	at   int
}

func (s *scriptedSource) Int63() int64 { v := s.vals[s.at%len(s.vals)]; s.at++; return v }
func (s *scriptedSource) Seed(int64)   {}

// The dense fill is a literal rng.Float32()*2-1 loop, draw for draw — Go 1's
// frozen stream, float64(Int63())/(1<<63) narrowed to float32 and resampled
// when either step rounds to 1 — and leaves the generator where that loop does.
func TestFillDenseMatchesFloat32DrawForDraw(t *testing.T) {
	script := []int64{
		1 << 62, 12345,
		1<<63 - 1,         // float64 rounds to 1: Float64 resamples
		1<<63 - (1 << 38), // below 1 as float64, 1 as float32: Float32 resamples
		1<<63 - (1 << 39), // the largest float32 below 1: kept
		0, 987654321987654321,
	}
	for name, pair := range map[string][2]*rand.Rand{
		"seeded":   {rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))},
		"scripted": {rand.New(&scriptedSource{vals: script}), rand.New(&scriptedSource{vals: script})},
	} {
		ours, theirs := pair[0], pair[1]
		got := make([]float32, 5000)
		fillDense(ours, got)
		for i := range got {
			if want := theirs.Float32()*2 - 1; math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("%s: draw %d = %v, rng.Float32()*2-1 gives %v", name, i, got[i], want)
			}
		}
		if a, b := ours.Int63(), theirs.Int63(); a != b {
			t.Fatalf("%s: generator left in a different state than %d Float32 calls leave it", name, len(got))
		}
	}
}

// NewInputInto against the definition, not against NewInput (which shares its
// code): for every zoo model, dense features then table by table, item by
// item, lookup by lookup, each a literal math/rand call on a second generator.
// A toolchain that changed the v1 stream would fail here, not in a golden
// three layers up.
func TestNewInputIntoMatchesLiteralRandLoopsWholeZoo(t *testing.T) {
	for _, name := range ZooNames() {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg, 1)
		ours, theirs := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
		s := NewScratch()
		for _, size := range []int{3, 37, 2} {
			in := m.NewInputInto(s, ours, size)
			if (in.Dense != nil) != (cfg.DenseInDim > 0) {
				t.Fatalf("%s: dense presence %v with DenseInDim %d", name, in.Dense != nil, cfg.DenseInDim)
			}
			if in.Dense != nil {
				if in.Dense.Rows != size || in.Dense.Cols != cfg.DenseInDim || len(in.Dense.Data) != size*cfg.DenseInDim {
					t.Fatalf("%s: dense shape %v (%d values) at size %d", name, in.Dense, len(in.Dense.Data), size)
				}
				for i, v := range in.Dense.Data {
					if want := theirs.Float32()*2 - 1; math.Float32bits(v) != math.Float32bits(want) {
						t.Fatalf("%s: dense %d = %v, want %v", name, i, v, want)
					}
				}
			}
			if len(in.Sparse) != cfg.NumTables {
				t.Fatalf("%s: %d tables, want %d", name, len(in.Sparse), cfg.NumTables)
			}
			for tt, perItem := range in.Sparse {
				lookups := cfg.LookupsPerTable
				if m.isSeqTable(tt) {
					lookups = cfg.SeqLen
				}
				if len(perItem) != size {
					t.Fatalf("%s: table %d has %d lists, want %d", name, tt, len(perItem), size)
				}
				for i, idxs := range perItem {
					if len(idxs) != lookups {
						t.Fatalf("%s: table %d item %d has %d lookups, want %d", name, tt, i, len(idxs), lookups)
					}
					for j, idx := range idxs {
						if want := theirs.Intn(cfg.TableRows); idx != want {
							t.Fatalf("%s: index [%d][%d][%d] = %d, want %d", name, tt, i, j, idx, want)
						}
					}
				}
			}
		}
		if a, b := ours.Int63(), theirs.Int63(); a != b {
			t.Fatalf("%s: generator left in a different state than the literal loops leave it", name)
		}
	}
}

// The scratch forward path must be allocation-free in steady state — the
// acceptance headline of the compute-stack rewrite.
func TestForwardIntoSteadyStateAllocationFree(t *testing.T) {
	for _, name := range forwardModels {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg, 1)
		in := m.NewInput(rand.New(rand.NewSource(3)), 8)
		s := NewScratch()
		m.ForwardInto(s, in) // warm to the high-water mark
		if allocs := testing.AllocsPerRun(10, func() { m.ForwardInto(s, in) }); allocs != 0 {
			t.Errorf("%s: steady-state ForwardInto allocates %v times, want 0", name, allocs)
		}
	}
}

// RankTopN's bounded-heap selection must return exactly what sorting all
// candidates would, including duplicate-CTR tie-breaks by item index.
func TestRankTopNMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		ctrs := tensor.New(n, 1)
		for i := range ctrs.Data {
			// Coarse quantization forces plenty of exact ties.
			ctrs.Data[i] = float32(rng.Intn(17)) / 16
		}
		ref := make([]Ranked, n)
		for i := 0; i < n; i++ {
			ref[i] = Ranked{Item: i, CTR: ctrs.Data[i]}
		}
		sort.Slice(ref, func(a, b int) bool { return prefer(ref[a], ref[b]) })
		for _, topN := range []int{0, 1, 2, 5, n / 2, n, n + 3} {
			got := RankTopN(ctrs, topN)
			wantLen := topN
			if wantLen > n {
				wantLen = n
			}
			if wantLen < 0 {
				wantLen = 0
			}
			if len(got) != wantLen {
				t.Fatalf("trial %d topN %d: got %d results, want %d", trial, topN, len(got), wantLen)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("trial %d topN %d: rank %d = %+v, want %+v", trial, topN, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestRankTopNNaNSafety(t *testing.T) {
	// CTRs come out of a sigmoid so NaNs cannot occur in practice, but the
	// selection must at least not lose non-NaN candidates if they did.
	ctrs := tensor.New(4, 1)
	ctrs.Data[0] = 0.25
	ctrs.Data[1] = float32(math.NaN())
	ctrs.Data[2] = 0.75
	ctrs.Data[3] = 0.5
	got := RankTopN(ctrs, 2)
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	if got[0].Item != 2 {
		t.Errorf("best = %+v, want item 2", got[0])
	}
}

// Concurrent forwards on distinct scratches must share no mutable state —
// including in the sum-pooling kernel and its prefetch cursor, which only
// PoolSum models with many lookups exercise (run under -race).
func TestConcurrentForwardIntoDistinctScratches(t *testing.T) {
	cfg, err := ByName("DLRM-RMC1") // PoolSum, 80 lookups per table
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg, 1)
	in := m.NewInput(rand.New(rand.NewSource(8)), 8)
	want := m.Forward(in)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewScratch()
			for i := 0; i < 5; i++ {
				got := m.ForwardInto(s, in)
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						t.Errorf("concurrent forward diverged at %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestInputSliceAliases(t *testing.T) {
	cfg, err := ByName("DLRM-RMC1")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(cfg, 1)
	in := m.NewInput(rand.New(rand.NewSource(5)), 6)
	s := in.Slice(2, 5)
	if s.Size != 3 {
		t.Fatalf("slice size %d", s.Size)
	}
	if &s.Dense.Data[0] != &in.Dense.Data[2*in.Dense.Cols] {
		t.Error("sliced dense rows do not alias the original")
	}
	if &s.Sparse[0][0][0] != &in.Sparse[0][2][0] {
		t.Error("sliced index lists do not alias the original")
	}
}
