package model

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/par"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// Model is an executable instance of a Config: the paper's generalized
// recommendation architecture (Fig. 2) with a dense-feature DNN stack,
// embedding tables with pooling, optional sequence modeling (attention /
// AUGRU), feature interaction by concatenation, and one predictor stack per
// task producing click-through-rate probabilities.
type Model struct {
	Cfg Config

	dense      *nn.MLP
	bags       []*nn.EmbeddingBag
	attention  *nn.Attention
	gru        *nn.GRU
	predictors []*nn.MLP

	// stores holds the at-scale table backends when Cfg.Tables is set
	// (store mode), for stats aggregation and Close. Empty in classic mode.
	stores []nn.RowStore

	// scratchPool backs the allocating Forward wrapper so callers without
	// their own per-worker Scratch still run the arena path.
	scratchPool sync.Pool
}

// New constructs a model with deterministically-seeded weights. It returns
// an error for invalid configurations.
func New(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Cfg: cfg}
	m.scratchPool.New = func() any { return NewScratch() }

	if cfg.DenseInDim > 0 && len(cfg.DenseFC) > 0 {
		m.dense = nn.NewMLP(rng, append([]int{cfg.DenseInDim}, cfg.DenseFC...), nn.ReLU, nn.ReLU)
	}
	m.bags = make([]*nn.EmbeddingBag, cfg.NumTables)
	for i := range m.bags {
		pool := cfg.Pool
		if m.isSeqTable(i) {
			// Sequence tables gather raw vectors; pooling happens in the
			// attention / AUGRU stage, so the bag's own pool is unused.
			pool = nn.PoolSum
		}
		if cfg.Tables == nil {
			m.bags[i] = nn.NewEmbeddingBag(rng, cfg.TableRows, cfg.EmbDim, pool)
			m.bags[i].Table.ID = i
			continue
		}
		st, err := cfg.Tables(i, cfg.TableRows, cfg.EmbDim, rng, seed)
		if err != nil {
			m.closeStores()
			return nil, fmt.Errorf("model %s: opening table %d: %w", cfg.Name, i, err)
		}
		if st.Dim() != cfg.EmbDim || st.Rows() < 1 || st.Rows() > cfg.TableRows {
			m.closeStores()
			return nil, fmt.Errorf("model %s: table %d store serves %d x %d, config wants <=%d x %d", cfg.Name, i, st.Rows(), st.Dim(), cfg.TableRows, cfg.EmbDim)
		}
		m.stores = append(m.stores, st)
		m.bags[i] = &nn.EmbeddingBag{Table: nn.NewStoreEmbeddingTable(i, st), Pool: pool}
	}
	if cfg.SeqPool != SeqNone {
		m.attention = nn.NewAttention(rng, cfg.EmbDim, cfg.AttentionHidden)
	}
	if cfg.SeqPool == SeqAUGRU {
		m.gru = nn.NewGRU(rng, cfg.EmbDim, cfg.GRUHidden)
	}
	predictSizes := append([]int{cfg.InteractionDim()}, cfg.PredictFC...)
	predictSizes = append(predictSizes, 1) // CTR head
	m.predictors = make([]*nn.MLP, cfg.NumTasks)
	for i := range m.predictors {
		m.predictors[i] = nn.NewMLP(rng, predictSizes, nn.ReLU, nn.Sigmoid)
	}
	return m, nil
}

// MustNew is New for static configurations known to be valid; it panics on
// error and is intended for the built-in zoo and tests.
func MustNew(cfg Config, seed int64) *Model {
	m, err := New(cfg, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// isSeqTable reports whether table i holds behaviour sequences. Sequence
// tables occupy indices [2, 2+SeqTables): table 0 is the user feature and
// table 1 the candidate-item feature whose embedding serves as the
// attention query.
func (m *Model) isSeqTable(i int) bool {
	return m.Cfg.SeqPool != SeqNone && i >= 2 && i < 2+m.Cfg.SeqTables
}

// Input is one inference batch: Size candidate items for one user. Dense is
// [Size x DenseInDim] (nil when the model has no continuous features);
// Sparse[t][i] lists the embedding indices of item i in table t.
type Input struct {
	Size   int
	Dense  *tensor.Tensor
	Sparse [][][]int

	// index[t] is the array table t's lists are carved from when newInput
	// fills the input: one allocation per table, reused across calls.
	index [][]int
}

// NewInput draws a random, shape-correct input batch for the model from the
// reference stream: math/rand's, dense features as rng.Float32()*2-1 and then
// table by table, item by item, lookup by lookup as rng.Intn(rows). No lane
// draws from it any more (they take a Stream through NewInputSampled); it
// stays, bit for bit, because Recommend(candidates, topN, seed), the root
// goldens and cmd/bench's Recommend(64, 5, 7) pin are defined on it.
func (m *Model) NewInput(rng *rand.Rand, size int) *Input {
	return m.NewInputInto(nil, rng, size)
}

// NewInputInto is NewInput refilling the reusable input buffers held by s
// (fresh heap buffers when s is nil): in steady state, drawing a new batch
// of an already-seen size allocates nothing. The RNG is consumed in exactly
// the same order as NewInput, so the two produce identical inputs from
// identical generator states. The returned Input aliases s and is valid
// until the next NewInputInto or NewInputSampled call on the same Scratch.
func (m *Model) NewInputInto(s *Scratch, rng *rand.Rand, size int) *Input {
	return m.newInput(s, reference{rng}, size, nil)
}

// NewInputSampled is the lanes' draw: the same shapes and buffer reuse as
// NewInputInto, filled from st by its bulk fills — dense features first,
// then one fill per table (see Stream for the stream this defines; it is not
// NewInputInto's). A non-nil src (a skewed access distribution from
// internal/workload — Zipf hot-row popularity and friends) replaces the
// index fills: it must produce indices within [0, Model.TableRows()), and
// each draw is consumed in the same per-table, per-item, per-lookup order.
// Dense features always come from st.
func (m *Model) NewInputSampled(s *Scratch, st *Stream, size int, src IndexSource) *Input {
	return m.newInput(s, st, size, src)
}

// filler is what newInput asks of a generator: once per input and once per
// table, never per draw. *Stream is the lanes'; reference is math/rand's.
type filler interface {
	dense(x []float32)
	indices(idx []int, rows int)
}

// reference is the reference stream as a filler.
type reference struct{ rng *rand.Rand }

func (r reference) dense(x []float32)           { fillDense(r.rng, x) }
func (r reference) indices(idx []int, rows int) { fillIndices(r.rng, idx, rows) }

// newInput carves the input's shapes out of s's buffers and has f fill them.
func (m *Model) newInput(s *Scratch, f filler, size int, src IndexSource) *Input {
	if size <= 0 {
		panic(fmt.Sprintf("model: input size must be positive, got %d", size))
	}
	in := &Input{}
	if s != nil {
		if s.input == nil {
			s.input = in
		}
		in = s.input
	}
	in.Size = size

	if d := m.Cfg.DenseInDim; d > 0 {
		if in.Dense == nil || cap(in.Dense.Data) < size*d {
			in.Dense = &tensor.Tensor{Rows: size, Cols: d, Data: make([]float32, size*d)}
		} else {
			in.Dense.Rows, in.Dense.Cols = size, d
			in.Dense.Data = in.Dense.Data[:size*d]
		}
		f.dense(in.Dense.Data)
	} else {
		in.Dense = nil
	}

	nt := m.Cfg.NumTables
	if cap(in.Sparse) >= nt {
		in.Sparse = in.Sparse[:nt]
	} else {
		grown := make([][][]int, nt)
		copy(grown, in.Sparse)
		in.Sparse = grown
	}
	if len(in.index) < nt {
		in.index = append(in.index, make([][]int, nt-len(in.index))...)
	}
	for t := range in.Sparse {
		lookups := m.Cfg.LookupsPerTable
		if m.isSeqTable(t) {
			lookups = m.Cfg.SeqLen
		}
		// In classic mode this is Cfg.TableRows; a sharded store narrows
		// the draw range to the rows this replica actually serves.
		rows := m.bags[t].Table.Rows()
		perItem := in.Sparse[t]
		if cap(perItem) >= size {
			perItem = perItem[:size]
		} else {
			perItem = make([][]int, size)
		}
		// One backing array per table, carved into the per-item lists on
		// every call (a Scratch serves models of any shape, so the carving
		// cannot be kept): a table's lists lie back to back in item order.
		if cap(in.index[t]) < size*lookups {
			in.index[t] = make([]int, size*lookups)
		}
		idx := in.index[t][:size*lookups]
		if src != nil {
			for j := range idx {
				idx[j] = src.Next()
			}
		} else {
			f.indices(idx, rows)
		}
		for i := range perItem {
			perItem[i] = idx[i*lookups : (i+1)*lookups : (i+1)*lookups]
		}
		in.Sparse[t] = perItem
	}
	return in
}

// fillIndices draws len(idx) uniform indices in [0, rows) exactly as a loop of
// rng.Intn(rows) would — the same values from the same Int63 draws, leaving
// rng in the same state — with Int31n's rejection threshold, which Intn
// recomputes (a 32-bit division) on every call, computed once.
func fillIndices(rng *rand.Rand, idx []int, rows int) {
	switch {
	case rows <= 0 || rows > math.MaxInt32:
		for j := range idx {
			idx[j] = rng.Intn(rows) // panics, or takes Int63n's path
		}
	case rows&(rows-1) == 0:
		for j := range idx {
			idx[j] = int(rng.Int63()>>32) & (rows - 1)
		}
	default:
		n := int32(rows)
		limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		for j := range idx {
			v := int32(rng.Int63() >> 32)
			for v > limit {
				v = int32(rng.Int63() >> 32)
			}
			idx[j] = int(v % n)
		}
	}
}

// fillDense draws len(x) dense features in [-1, 1) exactly as a loop of
// rng.Float32()*2-1 would, draw for draw: Go 1's frozen Float32 stream is
// float32(float64(Int63())/(1<<63)), resampled when it rounds to 1.
func fillDense(rng *rand.Rand, x []float32) {
	for i := range x {
		f := float32(float64(rng.Int63()) / (1 << 63))
		for f == 1 {
			f = float32(float64(rng.Int63()) / (1 << 63))
		}
		x[i] = f*2 - 1
	}
}

// Slice returns a view of items [lo, hi) of the batch: the dense rows and
// per-table index lists alias the original input. It is the row-splitting
// primitive behind ForwardSplit.
func (in *Input) Slice(lo, hi int) *Input {
	if lo < 0 || hi > in.Size || lo >= hi {
		panic(fmt.Sprintf("model: invalid input slice [%d, %d) of %d", lo, hi, in.Size))
	}
	s := &Input{Size: hi - lo}
	if in.Dense != nil {
		c := in.Dense.Cols
		s.Dense = tensor.FromSlice(hi-lo, c, in.Dense.Data[lo*c:hi*c])
	}
	s.Sparse = make([][][]int, len(in.Sparse))
	for t := range in.Sparse {
		s.Sparse[t] = in.Sparse[t][lo:hi]
	}
	return s
}

// Forward computes CTR probabilities for every (user, item) pair in the
// batch. The result is [Size x 1]: the probability for each candidate item.
// For multi-task models the task outputs are averaged, matching the use of
// MT-WnD's objectives as a combined ranking score.
//
// Forward is a thin wrapper over ForwardInto on a pooled Scratch, so it is
// safe for concurrent use and produces bit-identical results; hot paths
// hold their own per-worker Scratch and call ForwardInto directly.
func (m *Model) Forward(in *Input) *tensor.Tensor {
	s := m.scratchPool.Get().(*Scratch)
	out := m.ForwardInto(s, in).Clone()
	m.scratchPool.Put(s)
	return out
}

// ForwardInto is Forward with every intermediate — pooled embeddings,
// attention scratch, GRU state, FC activations — allocated from the
// scratch's arena: in steady state the pass is allocation-free. The
// returned [Size x 1] tensor aliases the arena and is valid until the next
// ForwardInto call on the same Scratch; Clone it to retain it.
func (m *Model) ForwardInto(s *Scratch, in *Input) *tensor.Tensor {
	s.ar.Reset()
	ar := &s.ar
	features := m.assembleFeatures(s, in)
	out := m.predictors[0].ForwardInto(ar, features)
	if len(m.predictors) > 1 {
		for _, p := range m.predictors[1:] {
			out.AddInPlace(p.ForwardInto(ar, features))
		}
		out.Scale(1 / float32(len(m.predictors)))
	}
	return out
}

// ForwardMaybeSplit is the one place the intra-query split policy lives:
// it fans out through ForwardSplit when more than one scratch is provided
// and the batch has at least 2·MinSplitRows rows, and runs a plain
// ForwardInto on scratches[0] otherwise. Like ForwardInto, the serial
// path's result aliases scratches[0]'s arena.
func (m *Model) ForwardMaybeSplit(scratches []*Scratch, in *Input) *tensor.Tensor {
	if parts := in.Size / MinSplitRows; len(scratches) > 1 && parts >= 2 {
		return m.ForwardSplit(scratches, in, parts)
	}
	return m.ForwardInto(scratches[0], in)
}

// ForwardSplit computes Forward over row-disjoint slices of the batch on up
// to parts goroutines via the internal/par pool, one Scratch per part — the
// intra-query parallelism knob for big-batch queries. Every operator in the
// forward pass is row-independent, so the assembled output is bit-identical
// to a single ForwardInto over the whole batch. The result is freshly
// heap-allocated (it outlives the per-part scratches).
func (m *Model) ForwardSplit(scratches []*Scratch, in *Input, parts int) *tensor.Tensor {
	if parts > len(scratches) {
		parts = len(scratches)
	}
	if parts > in.Size {
		parts = in.Size
	}
	if parts <= 1 {
		return m.ForwardInto(scratches[0], in).Clone()
	}
	out := tensor.New(in.Size, 1)
	chunk := (in.Size + parts - 1) / parts
	bounds := make([]int, 0, parts)
	for lo := 0; lo < in.Size; lo += chunk {
		bounds = append(bounds, lo)
	}
	par.Map(len(bounds), bounds, func(lo int) struct{} {
		hi := lo + chunk
		if hi > in.Size {
			hi = in.Size
		}
		res := m.ForwardInto(scratches[lo/chunk], in.Slice(lo, hi))
		copy(out.Data[lo:hi], res.Data)
		return struct{}{}
	})
	return out
}

// assembleFeatures runs the dense and sparse paths and concatenates their
// outputs into the predictor input (the feature-interaction step). All
// intermediates come from the scratch arena; the slice headers tracking
// feature parts and behaviour sequences are reused across calls.
func (m *Model) assembleFeatures(s *Scratch, in *Input) *tensor.Tensor {
	if len(in.Sparse) != m.Cfg.NumTables {
		panic(fmt.Sprintf("model %s: input has %d sparse features, want %d", m.Cfg.Name, len(in.Sparse), m.Cfg.NumTables))
	}
	ar := &s.ar
	parts := s.parts[:0]

	if m.Cfg.DenseInDim > 0 {
		if in.Dense == nil {
			panic(fmt.Sprintf("model %s: missing dense input", m.Cfg.Name))
		}
		if m.dense != nil {
			parts = append(parts, m.dense.ForwardInto(ar, in.Dense))
		} else {
			parts = append(parts, in.Dense) // WnD passthrough
		}
	}

	if m.Cfg.UseGMF {
		u := m.bags[0].ForwardInto(ar, in.Sparse[0])
		v := m.bags[1].ForwardInto(ar, in.Sparse[1])
		parts = append(parts, tensor.MulInto(u, u, v)) // u is dead after this
	}

	var query *tensor.Tensor
	for t := 0; t < m.Cfg.NumTables; t++ {
		if m.isSeqTable(t) {
			continue
		}
		if m.Cfg.UseGMF && t < 2 {
			continue
		}
		pooled := m.bags[t].ForwardInto(ar, in.Sparse[t])
		if t == 1 && m.Cfg.SeqPool != SeqNone {
			query = pooled
		}
		parts = append(parts, pooled)
	}

	if m.Cfg.SeqPool != SeqNone {
		if query == nil {
			panic(fmt.Sprintf("model %s: sequence pooling without item query table", m.Cfg.Name))
		}
		for t := 2; t < 2+m.Cfg.SeqTables; t++ {
			history := s.history[:0]
			for i := 0; i < in.Size; i++ {
				history = append(history, m.bags[t].Table.LookupInto(ar, in.Sparse[t][i]))
			}
			s.history = history
			switch m.Cfg.SeqPool {
			case SeqAttention:
				parts = append(parts, m.attention.ForwardInto(ar, query, history))
			case SeqAUGRU:
				s.scores = m.attention.ScoresInto(ar, s.scores, query, history)
				parts = append(parts, m.gru.ForwardWeightedInto(ar, history, s.scores))
			}
		}
	}

	s.parts = parts
	width := 0
	for _, p := range parts {
		width += p.Cols
	}
	if width != m.Cfg.InteractionDim() {
		panic(fmt.Sprintf("model %s: assembled %d features, config promises %d", m.Cfg.Name, width, m.Cfg.InteractionDim()))
	}
	return tensor.ConcatInto(ar.NewTensorUninit(in.Size, width), parts...)
}
