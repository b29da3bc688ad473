package model

// Profile is the per-item operator accounting of one model configuration.
// It is the interface between the model zoo and the hardware performance
// models: internal/platform converts these FLOP and byte counts into
// service times, and internal/trace renders them as the paper's
// characterization figures (arithmetic intensity for Fig. 1, operator
// breakdown for Fig. 3).
type Profile struct {
	Name  string
	Class Bottleneck

	// DenseFLOPs counts the Dense-FC stack (regular, batch-friendly GEMM).
	DenseFLOPs int64
	// PredictFLOPs counts all predictor stacks (regular GEMM).
	PredictFLOPs int64
	// AttnFLOPs counts attention scorer work over sequence positions
	// (small GEMMs; batches poorly because sequences are per-item).
	AttnFLOPs int64
	// GRUFLOPs counts recurrent work (strictly serial over positions).
	GRUFLOPs int64
	// EmbBytes counts irregular embedding-gather traffic per item.
	EmbBytes int64
	// DenseBytes counts streaming input traffic per item (dense features).
	DenseBytes int64
	// MLPWeightBytes is the resident parameter footprint of all FC stacks,
	// the working set the cache-contention model cares about.
	MLPWeightBytes int64
	// InputBytes is the wire size of one item's features, the unit of
	// host-to-accelerator transfer in the GPU model.
	InputBytes int64
}

// MLPFLOPs returns the batch-friendly GEMM FLOPs per item (dense + predict
// stacks), the portion of compute that benefits from SIMD and batching.
func (p Profile) MLPFLOPs() int64 { return p.DenseFLOPs + p.PredictFLOPs }

// TotalFLOPs returns all floating-point work per item.
func (p Profile) TotalFLOPs() int64 {
	return p.DenseFLOPs + p.PredictFLOPs + p.AttnFLOPs + p.GRUFLOPs
}

// TotalBytes returns all memory traffic per item (embedding gathers plus
// dense feature streaming).
func (p Profile) TotalBytes() int64 { return p.EmbBytes + p.DenseBytes }

// ArithmeticIntensity returns FLOPs per byte of memory traffic, the x-axis
// of the paper's Fig. 1 roofline. Models below ~1 FLOP/byte are memory
// bound on every platform the paper considers.
func (p Profile) ArithmeticIntensity() float64 {
	b := p.TotalBytes()
	if b == 0 {
		return 0
	}
	return float64(p.TotalFLOPs()) / float64(b)
}

// BuildProfile computes the per-item operator accounting of a configuration
// without instantiating weights. The arithmetic mirrors the layer
// definitions in internal/nn; TestProfileMatchesModel cross-checks it
// against an instantiated model.
func BuildProfile(cfg Config) Profile {
	p := Profile{Name: cfg.Name, Class: cfg.Class}

	// Dense stack.
	if cfg.DenseInDim > 0 {
		p.DenseBytes = int64(cfg.DenseInDim) * 4
		p.InputBytes += int64(cfg.DenseInDim) * 4
		if len(cfg.DenseFC) > 0 {
			prev := cfg.DenseInDim
			for _, w := range cfg.DenseFC {
				p.DenseFLOPs += 2*int64(prev)*int64(w) + int64(w)
				p.MLPWeightBytes += 4 * (int64(prev)*int64(w) + int64(w))
				prev = w
			}
		}
	}

	// Embedding traffic: every lookup streams one EmbDim float32 vector.
	if cfg.NumTables > 0 {
		plainLookups := int64(cfg.plainTables()) * int64(cfg.LookupsPerTable)
		seqLookups := int64(cfg.SeqTables) * int64(cfg.SeqLen)
		p.EmbBytes = (plainLookups + seqLookups) * int64(cfg.EmbDim) * 4
		// Sparse inputs on the wire: one 4-byte index per lookup.
		p.InputBytes += (plainLookups + seqLookups) * 4
	}

	// GMF elementwise product.
	if cfg.UseGMF {
		p.PredictFLOPs += int64(cfg.EmbDim)
	}

	// Attention scorer over sequence positions.
	if cfg.SeqPool != SeqNone {
		scorer := attentionScorerFLOPs(cfg.EmbDim, cfg.AttentionHidden)
		perPos := int64(cfg.EmbDim) + scorer + 2*int64(cfg.EmbDim)
		p.AttnFLOPs += int64(cfg.SeqTables) * int64(cfg.SeqLen) * perPos
		p.MLPWeightBytes += attentionScorerBytes(cfg.EmbDim, cfg.AttentionHidden)
	}

	// AUGRU recurrence.
	if cfg.SeqPool == SeqAUGRU {
		perStep := gruStepFLOPs(cfg.EmbDim, cfg.GRUHidden)
		p.GRUFLOPs += int64(cfg.SeqTables) * int64(cfg.SeqLen) * perStep
		p.MLPWeightBytes += gruWeightBytes(cfg.EmbDim, cfg.GRUHidden)
	}

	// Predictor stacks.
	prev := cfg.InteractionDim()
	var perTask int64
	var perTaskBytes int64
	for _, w := range append(append([]int{}, cfg.PredictFC...), 1) {
		perTask += 2*int64(prev)*int64(w) + int64(w)
		perTaskBytes += 4 * (int64(prev)*int64(w) + int64(w))
		prev = w
	}
	p.PredictFLOPs += int64(cfg.NumTasks) * perTask
	p.MLPWeightBytes += int64(cfg.NumTasks) * perTaskBytes

	return p
}

// attentionScorerFLOPs mirrors nn.MLP FLOP accounting for the DIN scorer
// (3·dim → hidden → 1).
func attentionScorerFLOPs(dim, hidden int) int64 {
	in := int64(3 * dim)
	h := int64(hidden)
	return (2*in*h + h) + (2*h*1 + 1)
}

func attentionScorerBytes(dim, hidden int) int64 {
	in := int64(3 * dim)
	h := int64(hidden)
	return 4 * ((in*h + h) + (h*1 + 1))
}

// gruStepFLOPs mirrors nn.GRUCell.FLOPsPerStepPerItem.
func gruStepFLOPs(in, hidden int) int64 {
	return 2*int64(in)*int64(hidden)*3 + 2*int64(hidden)*int64(hidden)*3 + 10*int64(hidden)
}

func gruWeightBytes(in, hidden int) int64 {
	return 4 * (3*int64(in)*int64(hidden) + 3*int64(hidden)*int64(hidden) + 3*int64(hidden))
}
