package model

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// The literal restatement of Stream's definition: everything below reaches
// the generator through Uint64 alone, one call at a time.

// literal reads a stream by the definition. It counts the outputs of the
// current round the stream has returned (draws through rand.New(l) count
// too), so it can drop the rest of a round by reading to its end.
type literal struct {
	st  *Stream
	pos int // outputs of the current round returned so far
}

func newLiteral(seed int64) *literal { return &literal{st: NewStream(seed)} }

func (l *literal) Uint64() uint64 {
	l.pos = (l.pos + 1) % 8
	return l.st.Uint64()
}

func (l *literal) Int63() int64 { return int64(l.Uint64() >> 1) }

func (l *literal) Seed(int64) { panic("literal: the restatement is never reseeded") }

// drop reads to the end of the current round: what every fill does first to
// whatever outputs the view left.
func (l *literal) drop() {
	for l.pos != 0 {
		l.Uint64()
	}
}

// round reads a fresh round, u₀…u₇.
func (l *literal) round() (u [8]uint64) {
	l.drop()
	for i := range u {
		u[i] = l.Uint64()
	}
	return u
}

// halves reads a literal as a fill reads a stream: sixteen 32-bit halves a
// round, the high halves of u₀…u₇ and then their low halves. One halves
// value lives for one fill, and reads whole rounds, so the rest of a round
// left at the fill's end is dropped with it.
type halves struct {
	l *literal
	u [8]uint64
	h int // the next half of u; 16 when u is spent
}

func newHalves(l *literal) *halves {
	l.drop()
	return &halves{l: l, h: 16}
}

func (hs *halves) next() uint32 {
	if hs.h == 16 {
		hs.u, hs.h = hs.l.round(), 0
	}
	h := hs.h
	hs.h++
	if h < 8 {
		return uint32(hs.u[h] >> 32)
	}
	return uint32(hs.u[h-8])
}

// literalIndices is Stream.indices by the definition; it also reports how
// many draws the rejection rule threw away.
func literalIndices(l *literal, idx []int, rows int) (rejected int) {
	n := uint64(rows)
	if n >= 1<<32 {
		threshold := (math.MaxUint64 - n + 1) % n // (2^64 - rows) % rows
		l.drop()
		var u [8]uint64
		next := len(u)
		output := func() uint64 {
			if next == len(u) {
				u, next = l.round(), 0
			}
			next++
			return u[next-1]
		}
		for j := range idx {
			hi, lo := bits.Mul64(output(), n)
			for lo < threshold {
				rejected++
				hi, lo = bits.Mul64(output(), n)
			}
			idx[j] = int(hi)
		}
		return rejected
	}
	threshold := (1<<32 - n) % n
	hs := newHalves(l)
	for j := range idx {
		m := uint64(hs.next()) * n
		for m&(1<<32-1) < threshold {
			rejected++
			m = uint64(hs.next()) * n
		}
		idx[j] = int(m >> 32)
	}
	return rejected
}

// literalDense is Stream.dense by the definition, in float64 so that it
// shares no float32 arithmetic with the code under test.
func literalDense(l *literal, x []float32) {
	hs := newHalves(l)
	for i := range x {
		x[i] = float32(float64(hs.next()>>8)/(1<<23) - 1)
	}
}

// scripted returns a stream whose first round is outs: lane i's output is
// rotl(s0+s3, 23) + s0 with s0 = 0. The rounds after it are whatever the
// step makes of the state.
func scripted(outs [8]uint64) *Stream {
	st := &Stream{}
	for i, out := range outs {
		st.s[0][i], st.s[1][i], st.s[2][i], st.s[3][i] = 0, 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, bits.RotateLeft64(out, -23)
	}
	return st
}

// sameNext fails unless the two streams' next outputs agree, i.e. unless the
// code under test consumed exactly the rounds the restatement did.
func sameNext(t *testing.T, what string, got *Stream, want *literal) {
	t.Helper()
	if a, b := got.Uint64(), want.Uint64(); a != b {
		t.Fatalf("%s: stream left in a different state than the literal restatement leaves it", what)
	}
}

// indicesMatchLiteral fills n indices over rows from ours in bulk and from
// theirs by the restatement (the two must be in the same state), fails on an
// out-of-range index, a differing one or a differing next draw, and returns
// how many draws the restatement rejected.
func indicesMatchLiteral(t *testing.T, ours *Stream, theirs *literal, rows, n int) (rejected int) {
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
	sameNext(t, fmt.Sprintf("indices, rows %d, %d draws", rows, n), ours, theirs)
	return rejected
}

// denseMatchLiteral is indicesMatchLiteral for n dense features, which must
// also lie in [-1, 1).
func denseMatchLiteral(t *testing.T, ours *Stream, theirs *literal, n int) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	ours.dense(got)
	literalDense(theirs, want)
	for i := range got {
		if got[i] < -1 || got[i] >= 1 {
			t.Fatalf("%d features: feature %d = %v, outside [-1, 1)", n, i, got[i])
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%d features: feature %d = %v, the definition gives %v", n, i, got[i], want[i])
		}
	}
	sameNext(t, fmt.Sprintf("dense, %d features", n), ours, theirs)
}

// forEachBackend runs f once under every backend this process can run, as a
// subtest named after it, and restores the active one.
func forEachBackend(t *testing.T, f func(t *testing.T)) {
	prev := tensor.ActiveBackend()
	defer tensor.SetBackend(prev)
	for _, bk := range tensor.Backends() {
		if err := tensor.SetBackend(bk); err != nil {
			t.Fatal(err)
		}
		t.Run(bk.String(), f)
	}
}

// Known answers, computed independently (Python) when the stream was
// defined: the splitmix64 seeding of seed 0 and its first two rounds; the
// first round from lane i = {4i+1, 4i+2, 4i+3, 4i+4}, and lane 0's next four
// outputs — the xoshiro256++ sequence from {1, 2, 3, 4}.
func TestStreamKnownAnswers(t *testing.T) {
	seed0 := [32]uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x6c45d188009454f, 0xf88bb8a8724c81ec,
		0x1b39896a51a8749b, 0x53cb9f0c747ea2ea, 0x2c829abe1f4532e1, 0xc584133ac916ab3c,
		0x3ee5789041c98ac3, 0xf3b8488c368cb0a6, 0x657eecdd3cb13d09, 0xc2d326e0055bdef6,
		0x8621a03fe0bbdb7b, 0x8e1f7555983aa92f, 0xb54e0f1600cc4d19, 0x84bb3f97971d80ab,
		0x7d29825c75521255, 0xc3cf17102b7f7f86, 0x3466e9a083914f64, 0xd81a8d2b5a4485ac,
		0xdb01602b100b9ed7, 0xa9038a921825f10d, 0xedf5f1d90dca2f6a, 0x54496ad67bd2634c,
		0xdd7c01d4f5407269, 0x935e82f1db4c4f7b, 0x69b82ebc92233300, 0x40d29eb57de1d510,
		0xa2f09dabb45c6316, 0xee521d7a0f4d3872, 0xf16952ee72f3454f, 0x377d35dea8e40225,
	}
	st := NewStream(0)
	for k, want := range seed0 {
		if got := st.s[k%4][k/4]; got != want {
			t.Fatalf("NewStream(0): lane %d word %d = %#x, want %#x", k/4, k%4, got, want)
		}
	}
	for r, round := range [][8]uint64{
		{5987356902031041503, 7910265956995748713, 17800771393647437586, 8204869049763580394,
			4688614072998736988, 6613341628778366012, 2501066764906895801, 7502783529295124991},
		{7051070477665621255, 11593717927555618233, 11852925777569747105, 13097142371489271349,
			6329792862378330412, 3653407466660058742, 1142745312961431246, 10834598601783963289},
	} {
		for i, want := range round {
			if got := st.Uint64(); got != want {
				t.Fatalf("NewStream(0): round %d output %d = %d, want %d", r, i, got, want)
			}
		}
	}

	st = &Stream{}
	for i := range 8 {
		for w := range 4 {
			st.s[w][i] = uint64(4*i + w + 1)
		}
	}
	for i, want := range [8]uint64{41943041, 109051909, 176160777, 243269645, 310378513, 377487381, 444596249, 511705117} {
		if got := st.Uint64(); got != want {
			t.Fatalf("lanes {4i+1…4i+4}: first round output %d = %d, want %d", i, got, want)
		}
	}
	for r, want := range []uint64{58720359, 3588806011781223, 3591011842654386, 9228616714210784205} {
		var round [8]uint64
		for i := range round {
			round[i] = st.Uint64()
		}
		if round[0] != want {
			t.Fatalf("lane {1,2,3,4}: output %d = %d, want %d", r+1, round[0], want)
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
		ours, theirs := NewStream(11), newLiteral(11)
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
// rejected (3<<30 on halves, 3<<61 on whole outputs) — at lengths that end
// a fill mid-round and on a round's edge.
func TestStreamIndicesInRangeAndLiteral(t *testing.T) {
	for _, r := range []uint64{1, 2, 3, 10000, 1 << 16, 1<<31 - 1, 1 << 31, 3 << 30, 1<<32 - 1, 1 << 32, 1 << 40, 3 << 61} {
		if r > math.MaxInt {
			continue // 32-bit int
		}
		rows := int(r)
		for _, n := range []int{0, 1, 2, 1000, 1001, 1024} {
			rejected := indicesMatchLiteral(t, NewStream(int64(rows)), newLiteral(int64(rows)), rows, n)
			if (r == 3<<30 || r == 3<<61) && n >= 1000 && (rejected < n/5 || rejected > n/2) {
				t.Fatalf("rows %d: %d of %d draws rejected, want about a third as many rejections as draws", rows, rejected, n)
			}
		}
	}
}

// Over 3 rows a half is rejected exactly when it is 0. Script a first round
// with a zero high half on lane 0 (the fill's first half), a zero low half on
// lane 3 (its twelfth) and both halves zero on lane 7 (its eighth and last),
// at fill lengths that end before the rejection, put it on the last slot,
// and run the kernel over the round (16 and up); then the same on whole
// outputs: over 2^32+1 rows the threshold (2^64 - rows) % rows is 1, so an
// output is rejected exactly when the product's low word is 0.
func TestStreamIndicesRejectOnEachHalf(t *testing.T) {
	const ok = 0x80000000_80000000
	lengths := []int{1, 11, 12, 16, 17, 33}
	cases := []struct {
		lane int
		out  uint64
		rows uint64
		want []int // rejections at each of lengths
	}{
		{0, 0x00000000_80000000, 3, []int{1, 1, 1, 1, 1, 1}},
		{3, 0x80000000_00000000, 3, []int{0, 0, 1, 1, 1, 1}},
		{7, 0, 3, []int{0, 1, 1, 2, 2, 2}},
		{2, 0, 1<<32 + 1, []int{0, 1, 1, 1, 1, 1}},
	}
	forEachBackend(t, func(t *testing.T) {
		for _, c := range cases {
			if c.rows > math.MaxInt {
				continue // 32-bit int
			}
			outs := [8]uint64{ok, ok, ok, ok, ok, ok, ok, ok}
			outs[c.lane] = c.out
			for k, n := range lengths {
				if rejected := indicesMatchLiteral(t, scripted(outs), &literal{st: scripted(outs)}, int(c.rows), n); rejected != c.want[k] {
					t.Fatalf("lane %d output %#x, rows %d, %d draws: the definition rejects %d, the script was built for %d", c.lane, c.out, c.rows, n, rejected, c.want[k])
				}
			}
		}
	})
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

// Dense features are in [-1, 1), equal the restatement's at lengths that end
// mid-round and on a round's edge, and reach both ends: 24 zero bits give -1
// and 24 one bits the largest float32 below 1, on either half — through the
// kernel (a 16-feature fill) and the Go loop (11) alike.
func TestStreamDenseRangeEndsAndLiteral(t *testing.T) {
	for _, n := range []int{0, 1, 2, 4096, 4097} {
		denseMatchLiteral(t, NewStream(5), newLiteral(5), n)
	}
	const below1 = 1 - 1.0/(1<<23)
	outs := [8]uint64{
		0x000000ff_ffffff00, // low 8 bits of a half are not used
		0xffffff00_000000ff,
		0x00000100_fffffe00,
	}
	want := map[int]float32{0: -1, 8: below1, 1: below1, 9: -1, 2: -1 + 1.0/(1<<23), 10: 1 - 2.0/(1<<23)}
	forEachBackend(t, func(t *testing.T) {
		for _, n := range []int{11, 16} {
			got := make([]float32, n)
			scripted(outs).dense(got)
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("%d features: feature %d = %v, want %v", n, i, got[i], w)
				}
			}
		}
	})
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
	a.Uint64() // Seed also forgets the view's place in a round
	a.Seed(7)
	if !sameInput(m.NewInputSampled(nil, a, 5, nil), m.NewInputSampled(nil, NewStream(7), 5, nil)) {
		t.Fatal("Seed(7) on a used stream does not restart it")
	}
}

// rand.New(st) is a view of the stream's own state: draws through it and
// direct fills interleave on one sequence, which is what lets a Zipf source
// and the dense fill share a lane's seeded stream.
func TestStreamRandViewInterleavesWithFills(t *testing.T) {
	ours, theirs := NewStream(3), newLiteral(3)
	view := rand.New(ours)
	if got, want := view.Int63(), int64(theirs.Uint64()>>1); got != want {
		t.Fatalf("view.Int63() = %d, the stream's next output gives %d", got, want)
	}
	idx, wantIdx := make([]int, 5), make([]int, 5)
	ours.indices(idx, 1000)
	literalIndices(theirs, wantIdx, 1000)
	if got, want := view.Uint64(), theirs.Uint64(); got != want {
		t.Fatalf("view.Uint64() after an index fill = %d, the stream's next output gives %d", got, want)
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

// Under every backend the fills are the restatement, values and next draw:
// every length 0–40 (each way to end mid-round or on a round's edge, and the
// kernel's first full rounds) and RMC1's 20,480 lookups per table, over row
// counts that take the kernel — 1, 3, 10,000; 3·2³⁰, where a quarter of all
// halves are rejected, so the kernel hands a round back every few; 2³¹+1,
// nearly half — and that do not (2³², math.MaxInt64). A view draw comes
// between fills, so each one starts by discarding most of a round.
func TestStreamFillsIdenticalAcrossBackends(t *testing.T) {
	lengths := []int{20480}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	forEachBackend(t, func(t *testing.T) {
		for _, r := range []uint64{1, 3, 10000, 3 << 30, 1<<31 + 1, 1 << 32, math.MaxInt64} {
			if r > math.MaxInt {
				continue // 32-bit int
			}
			ours, theirs := NewStream(int64(r)), newLiteral(int64(r))
			view, theirView := rand.New(ours), rand.New(theirs)
			for _, n := range lengths {
				indicesMatchLiteral(t, ours, theirs, int(r), n)
				if a, b := view.Int63(), theirView.Int63(); a != b {
					t.Fatalf("rows %d, after %d indices: view draw %d, the definition gives %d", r, n, a, b)
				}
				denseMatchLiteral(t, ours, theirs, n)
			}
		}
	})
}

// FuzzStreamIndices: for any seed, row count, length and backend, every
// index is in range and the fill is the literal restatement, values and next
// draw.
func FuzzStreamIndices(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(1), uint8(0))
	f.Add(int64(1), int64(3), uint16(7), uint8(1))
	f.Add(int64(-5), int64(1000000), uint16(768), uint8(2))
	f.Add(int64(9), int64(3<<30), uint16(33), uint8(1))
	f.Add(int64(9), int64(1<<32), uint16(2), uint8(0))
	f.Add(int64(2), int64(math.MaxInt64), uint16(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed, rows int64, n uint16, backend uint8) {
		if rows <= 0 || rows > math.MaxInt {
			t.Skip()
		}
		bks := tensor.Backends()
		prev := tensor.ActiveBackend()
		defer tensor.SetBackend(prev)
		if err := tensor.SetBackend(bks[int(backend)%len(bks)]); err != nil {
			t.Fatal(err)
		}
		indicesMatchLiteral(t, NewStream(seed), newLiteral(seed), int(rows), int(n))
	})
}

// BenchmarkInputDraw times both streams' fills per draw, the lanes' under
// every backend: RMC1's 80 lookups per table at batch 256, over its 10,000
// rows and over the 10⁶ of a store-backed table, and as many dense features.
// These are the numbers docs/DESIGN.md §6 quotes.
func BenchmarkInputDraw(b *testing.B) {
	prev := tensor.ActiveBackend()
	defer tensor.SetBackend(prev)
	idx, x := make([]int, 80*256), make([]float32, 80*256)
	type fill struct {
		name string
		bk   tensor.Backend
		f    filler
	}
	fills := []fill{{"reference", tensor.Scalar, reference{rand.New(rand.NewSource(1))}}}
	for _, bk := range tensor.Backends() {
		fills = append(fills, fill{"stream/" + bk.String(), bk, NewStream(1)})
	}
	for _, fl := range fills {
		run := func(name string, draws int, fill func()) {
			b.Run(fl.name+"/"+name, func(b *testing.B) {
				if err := tensor.SetBackend(fl.bk); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					fill()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*draws), "ns/draw")
			})
		}
		for _, rows := range []int{10000, 1000000} {
			run(fmt.Sprintf("indices/rows=%d", rows), len(idx), func() { fl.f.indices(idx, rows) })
		}
		run("dense", len(x), func() { fl.f.dense(x) })
	}
}
