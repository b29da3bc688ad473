package model

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The literal restatement of Stream's definition: everything below reaches
// the generator through Uint64 alone, one call at a time.

// halves reads a stream as 32-bit halves, the high half of a step and then
// its low half. One halves value lives for one fill, so a low half left over
// at the fill's end is dropped with it.
type halves struct {
	st   *Stream
	low  uint32
	have bool
}

func (l *halves) next() uint32 {
	if l.have {
		l.have = false
		return l.low
	}
	u := l.st.Uint64()
	l.low, l.have = uint32(u), true
	return uint32(u >> 32)
}

// literalIndices is Stream.indices by the definition; it also reports how
// many draws the rejection rule threw away.
func literalIndices(st *Stream, idx []int, rows int) (rejected int) {
	n := uint64(rows)
	if n >= 1<<32 {
		threshold := (math.MaxUint64 - n + 1) % n // (2^64 - rows) % rows
		for j := range idx {
			hi, lo := bits.Mul64(st.Uint64(), n)
			for lo < threshold {
				rejected++
				hi, lo = bits.Mul64(st.Uint64(), n)
			}
			idx[j] = int(hi)
		}
		return rejected
	}
	threshold := (1<<32 - n) % n
	l := halves{st: st}
	for j := range idx {
		m := uint64(l.next()) * n
		for m&(1<<32-1) < threshold {
			rejected++
			m = uint64(l.next()) * n
		}
		idx[j] = int(m >> 32)
	}
	return rejected
}

// literalDense is Stream.dense by the definition, in float64 so that it
// shares no float32 arithmetic with the code under test.
func literalDense(st *Stream, x []float32) {
	l := halves{st: st}
	for i := range x {
		x[i] = float32(float64(l.next()>>8)/(1<<23) - 1)
	}
}

// scripted returns a stream whose next output is out: rotl(s0+s3, 23) + s0
// with s0 = 0. The outputs after it are whatever the step makes of the state.
func scripted(out uint64) *Stream {
	return &Stream{s: [4]uint64{0, 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, bits.RotateLeft64(out, -23)}}
}

// sameNext fails unless the two streams' next outputs agree, i.e. unless the
// code under test consumed exactly the steps the restatement did.
func sameNext(t *testing.T, what string, got, want *Stream) {
	t.Helper()
	if a, b := got.Uint64(), want.Uint64(); a != b {
		t.Fatalf("%s: stream left in a different state than the literal restatement leaves it", what)
	}
}

// indicesMatchLiteral fills n indices over rows from ours in bulk and from
// theirs by the restatement (the two must be in the same state), fails on an
// out-of-range index, a differing one or a differing next draw, and returns
// how many draws the restatement rejected.
func indicesMatchLiteral(t *testing.T, ours, theirs *Stream, rows, n int) (rejected int) {
	t.Helper()
	got, want := make([]int, n), make([]int, n)
	ours.indices(got, rows)
	rejected = literalIndices(theirs, want, rows)
	for j := range got {
		if got[j] < 0 || got[j] >= rows {
			t.Fatalf("rows %d, %d draws: draw %d = %d, out of range", rows, n, j, got[j])
		}
		if got[j] != want[j] {
			t.Fatalf("rows %d, %d draws: draw %d = %d, the definition gives %d", rows, n, j, got[j], want[j])
		}
	}
	sameNext(t, "indices", ours, theirs)
	return rejected
}

// Known answers, computed independently (Python and Go) when the stream was
// defined: the xoshiro256++ step from state {1, 2, 3, 4}, and the splitmix64
// seeding of seed 0.
func TestStreamKnownAnswers(t *testing.T) {
	st := &Stream{s: [4]uint64{1, 2, 3, 4}}
	for i, want := range []uint64{41943041, 58720359, 3588806011781223, 3591011842654386, 9228616714210784205} {
		if got := st.Uint64(); got != want {
			t.Fatalf("state {1,2,3,4}: output %d = %d, want %d", i, got, want)
		}
	}
	st = NewStream(0)
	if st.s[0] != 0xe220a8397b1dcdaf {
		t.Fatalf("NewStream(0): s[0] = %#x, want 0xe220a8397b1dcdaf", st.s[0])
	}
	for i, want := range []uint64{5987356902031041503, 7051070477665621255, 6633766593972829180} {
		if got := st.Uint64(); got != want {
			t.Fatalf("NewStream(0): output %d = %d, want %d", i, got, want)
		}
	}
	a, b := NewStream(-3), NewStream(-3)
	if got, want := a.Int63(), int64(b.Uint64()>>1); got != want {
		t.Fatalf("Int63 = %d, want Uint64()>>1 = %d", got, want)
	}
}

// NewInputSampled against the definition, not against the fills (the
// successor of TestNewInputIntoMatchesLiteralRandLoopsWholeZoo, which does
// the same for the reference stream): for every zoo model, dense features
// then table by table, each a literal fill on a second stream, values and
// next draw, with one Scratch grown and shrunk across the sizes.
func TestNewInputSampledMatchesLiteralStreamWholeZoo(t *testing.T) {
	for _, name := range ZooNames() {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg, 1)
		ours, theirs := NewStream(11), NewStream(11)
		s := NewScratch()
		for _, size := range []int{8, 256, 1, 37, 7, 9} {
			in := m.NewInputSampled(s, ours, size, nil)
			if (in.Dense != nil) != (cfg.DenseInDim > 0) {
				t.Fatalf("%s: dense presence %v with DenseInDim %d", name, in.Dense != nil, cfg.DenseInDim)
			}
			if in.Dense != nil {
				if in.Dense.Rows != size || in.Dense.Cols != cfg.DenseInDim || len(in.Dense.Data) != size*cfg.DenseInDim {
					t.Fatalf("%s: dense shape %v (%d values) at size %d", name, in.Dense, len(in.Dense.Data), size)
				}
				want := make([]float32, size*cfg.DenseInDim)
				literalDense(theirs, want)
				for i, v := range in.Dense.Data {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("%s size %d: dense %d = %v, want %v", name, size, i, v, want[i])
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
				want := make([]int, size*lookups)
				literalIndices(theirs, want, cfg.TableRows)
				for i, idxs := range perItem {
					if len(idxs) != lookups {
						t.Fatalf("%s: table %d item %d has %d lookups, want %d", name, tt, i, len(idxs), lookups)
					}
					for j, idx := range idxs {
						if idx != want[i*lookups+j] {
							t.Fatalf("%s size %d: index [%d][%d][%d] = %d, want %d", name, size, tt, i, j, idx, want[i*lookups+j])
						}
					}
				}
			}
			sameNext(t, name, ours, theirs)
		}
	}
}

// Every index is in [0, rows) and equals the restatement's, for row counts on
// both sides of every edge — 1, the smallest with a rejection, zoo-sized, the
// 32-bit boundary and past it, and two where a quarter of all draws are
// rejected (3<<30 on halves, 3<<61 on whole steps) — at an odd and an even
// fill length, so the fill ends once on each half.
func TestStreamIndicesInRangeAndLiteral(t *testing.T) {
	for _, r := range []uint64{1, 2, 3, 10000, 1 << 16, 1<<31 - 1, 1 << 31, 3 << 30, 1<<32 - 1, 1 << 32, 1 << 40, 3 << 61} {
		if r > math.MaxInt {
			continue // 32-bit int
		}
		rows := int(r)
		for _, n := range []int{0, 1, 2, 1000, 1001} {
			rejected := indicesMatchLiteral(t, NewStream(int64(rows)), NewStream(int64(rows)), rows, n)
			if (r == 3<<30 || r == 3<<61) && n >= 1000 && (rejected < n/5 || rejected > n/2) {
				t.Fatalf("rows %d: %d of %d draws rejected, want about a third as many rejections as draws", rows, rejected, n)
			}
		}
	}
}

// Over 3 rows a half is rejected exactly when it is 0. Script a step with a
// zero high half, one with a zero low half and one with both, at fill lengths
// that put the rejection in the loop body and on the last slot; then the same
// on whole steps: over 2^32+1 rows the threshold (2^64 - rows) % rows is 1,
// so a step is rejected exactly when the product's low word is 0.
func TestStreamIndicesRejectOnEachHalf(t *testing.T) {
	cases := []struct {
		out            uint64
		rows           uint64
		first, further int // rejections in a one-slot fill, and in a longer one
	}{
		{0x00000000_80000000, 3, 1, 1}, // high half rejected, low half taken in its place
		{0x80000000_00000000, 3, 0, 1}, // low half rejected, unless the fill ended on the high one
		{0, 3, 2, 2},
		{0, 1<<32 + 1, 1, 1},
	}
	for _, c := range cases {
		if c.rows > math.MaxInt {
			continue // 32-bit int
		}
		for _, n := range []int{1, 2, 3, 4} {
			wantRejected := c.further
			if n == 1 {
				wantRejected = c.first
			}
			if rejected := indicesMatchLiteral(t, scripted(c.out), scripted(c.out), int(c.rows), n); rejected != wantRejected {
				t.Fatalf("output %#x, rows %d, %d draws: the definition rejects %d, the script was built for %d", c.out, c.rows, n, rejected, wantRejected)
			}
		}
	}
}

func TestStreamIndicesPanicOnNoRows(t *testing.T) {
	for _, rows := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rows %d: no panic", rows)
				}
			}()
			NewStream(1).indices(make([]int, 4), rows)
		}()
	}
}

// Uniformity: a chi-square over every row, at a fixed seed so the verdict is
// not a coin toss. With k-1 degrees of freedom the statistic has mean k-1 and
// variance 2(k-1); five standard deviations either side is the bound (for
// 3 rows, where the normal approximation is poor, the upper 1e-4 point).
func TestStreamIndicesUniform(t *testing.T) {
	for _, c := range []struct {
		rows, draws int
		lo, hi      float64
	}{
		{3, 300000, 0, 18.4},
		{10000, 1000000, 9999 - 5*math.Sqrt(2*9999), 9999 + 5*math.Sqrt(2*9999)},
	} {
		idx := make([]int, c.draws)
		NewStream(42).indices(idx, c.rows)
		counts := make([]int, c.rows)
		for _, v := range idx {
			counts[v]++
		}
		expected := float64(c.draws) / float64(c.rows)
		var chi2 float64
		for _, n := range counts {
			d := float64(n) - expected
			chi2 += d * d / expected
		}
		if chi2 < c.lo || chi2 > c.hi {
			t.Fatalf("rows %d: chi-square %.1f over %d draws, want within [%.1f, %.1f]", c.rows, chi2, c.draws, c.lo, c.hi)
		}
	}
}

// Dense features are in [-1, 1), equal the restatement's at odd and even
// lengths, and reach both ends: 24 zero bits give -1 and 24 one bits the
// largest float32 below 1, on either half.
func TestStreamDenseRangeEndsAndLiteral(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4096, 4097} {
		ours, theirs := NewStream(5), NewStream(5)
		got, want := make([]float32, n), make([]float32, n)
		ours.dense(got)
		literalDense(theirs, want)
		for i := range got {
			if got[i] < -1 || got[i] >= 1 {
				t.Fatalf("draw %d = %v, outside [-1, 1)", i, got[i])
			}
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%d draws: draw %d = %v, the definition gives %v", n, i, got[i], want[i])
			}
		}
		sameNext(t, "dense", ours, theirs)
	}
	const below1 = 1 - 1.0/(1<<23)
	for _, c := range []struct {
		out  uint64
		want [2]float32
	}{
		{0x000000ff_ffffff00, [2]float32{-1, below1}}, // low 8 bits of a half are not used
		{0xffffff00_000000ff, [2]float32{below1, -1}},
		{0x00000100_fffffe00, [2]float32{-1 + 1.0/(1<<23), 1 - 2.0/(1<<23)}},
	} {
		got := make([]float32, 2)
		scripted(c.out).dense(got)
		if got[0] != c.want[0] || got[1] != c.want[1] {
			t.Fatalf("output %#x: dense %v, want %v", c.out, got, c.want)
		}
	}
}

func sameInput(a, b *Input) bool {
	if a.Size != b.Size || (a.Dense == nil) != (b.Dense == nil) || len(a.Sparse) != len(b.Sparse) {
		return false
	}
	if a.Dense != nil {
		for i, v := range a.Dense.Data {
			if math.Float32bits(v) != math.Float32bits(b.Dense.Data[i]) {
				return false
			}
		}
	}
	for t := range a.Sparse {
		for i := range a.Sparse[t] {
			for j, v := range a.Sparse[t][i] {
				if v != b.Sparse[t][i][j] {
					return false
				}
			}
		}
	}
	return true
}

// The same seed gives the same inputs, the next seed different ones, and
// Seed puts a used stream back where NewStream starts it.
func TestStreamSeedDeterminesInputs(t *testing.T) {
	m := MustNew(scaled(t, "DLRM-RMC1", 1000), 1)
	a, b, c := NewStream(7), NewStream(7), NewStream(8)
	for _, size := range []int{5, 16} {
		ia, ib, ic := m.NewInputSampled(nil, a, size, nil), m.NewInputSampled(nil, b, size, nil), m.NewInputSampled(nil, c, size, nil)
		if !sameInput(ia, ib) {
			t.Fatalf("size %d: two streams seeded 7 drew different inputs", size)
		}
		if sameInput(ia, ic) {
			t.Fatalf("size %d: streams seeded 7 and 8 drew the same input", size)
		}
	}
	a.Seed(7)
	if !sameInput(m.NewInputSampled(nil, a, 5, nil), m.NewInputSampled(nil, NewStream(7), 5, nil)) {
		t.Fatal("Seed(7) on a used stream does not restart it")
	}
}

// rand.New(st) is a view of the stream's own state: draws through it and
// direct fills interleave on one sequence, which is what lets a Zipf source
// and the dense fill share a lane's seeded stream.
func TestStreamRandViewInterleavesWithFills(t *testing.T) {
	ours, theirs := NewStream(3), NewStream(3)
	view := rand.New(ours)
	if got, want := view.Int63(), int64(theirs.Uint64()>>1); got != want {
		t.Fatalf("view.Int63() = %d, the stream's next step gives %d", got, want)
	}
	idx, wantIdx := make([]int, 5), make([]int, 5)
	ours.indices(idx, 1000)
	literalIndices(theirs, wantIdx, 1000)
	if got, want := view.Uint64(), theirs.Uint64(); got != want {
		t.Fatalf("view.Uint64() after an index fill = %d, the stream's next step gives %d", got, want)
	}
	x, wantX := make([]float32, 3), make([]float32, 3)
	ours.dense(x)
	literalDense(theirs, wantX)
	for j := range idx {
		if idx[j] != wantIdx[j] || (j < len(x) && x[j] != wantX[j]) {
			t.Fatalf("fill element %d between view draws differs from the definition", j)
		}
	}
	z, wantZ := rand.NewZipf(view, 1.2, 1, 999), rand.NewZipf(rand.New(theirs), 1.2, 1, 999)
	for i := 0; i < 50; i++ {
		if a, b := z.Uint64(), wantZ.Uint64(); a != b {
			t.Fatalf("Zipf draw %d through the view = %d, over the literally-filled stream %d", i, a, b)
		}
	}
	sameNext(t, "view", ours, theirs)
}

// FuzzStreamIndices: for any seed, row count and length, every index is in
// range and the fill is the literal restatement, values and next draw.
func FuzzStreamIndices(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(1))
	f.Add(int64(1), int64(3), uint16(7))
	f.Add(int64(-5), int64(1000000), uint16(768))
	f.Add(int64(9), int64(3<<30), uint16(33))
	f.Add(int64(9), int64(1<<32), uint16(2))
	f.Add(int64(2), int64(math.MaxInt64), uint16(5))
	f.Fuzz(func(t *testing.T, seed, rows int64, n uint16) {
		if rows <= 0 || rows > math.MaxInt {
			t.Skip()
		}
		indicesMatchLiteral(t, NewStream(seed), NewStream(seed), int(rows), int(n))
	})
}

// BenchmarkInputDraw times both streams' fills at RMC1's shapes, per draw:
// the numbers docs/DESIGN.md §6 quotes.
func BenchmarkInputDraw(b *testing.B) {
	const rows = 1000000
	idx, x := make([]int, 80*256), make([]float32, 80*256)
	fills := []struct {
		name string
		f    filler
	}{{"reference", reference{rand.New(rand.NewSource(1))}}, {"stream", NewStream(1)}}
	for _, fl := range fills {
		b.Run(fl.name+"/indices", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fl.f.indices(idx, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/draw")
		})
		b.Run(fl.name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fl.f.dense(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/draw")
		})
	}
}
