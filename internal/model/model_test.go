package model

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// smallCfg returns a fast-to-build config used where the full zoo would be
// wastefully large.
func smallCfg() Config {
	return Config{
		Name: "tiny", DenseInDim: 8, DenseFC: []int{16, 4},
		NumTables: 3, TableRows: 50, LookupsPerTable: 4, EmbDim: 8, Pool: nn.PoolSum,
		PredictFC: []int{16, 8}, NumTasks: 1,
		Class: EmbeddingDominated, SLAMedium: 100 * time.Millisecond,
	}
}

func TestZooHasEightValidModels(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 8 {
		t.Fatalf("zoo has %d models, want 8", len(zoo))
	}
	seen := map[string]bool{}
	for _, cfg := range zoo {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if seen[cfg.Name] {
			t.Errorf("duplicate zoo name %s", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	for _, want := range []string{"DLRM-RMC1", "DLRM-RMC2", "DLRM-RMC3", "NCF", "WnD", "MT-WnD", "DIN", "DIEN"} {
		if !seen[want] {
			t.Errorf("zoo missing %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	cfg, err := ByName("DIN")
	if err != nil || cfg.Name != "DIN" {
		t.Fatalf("ByName(DIN) = %v, %v", cfg.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should fail for unknown model")
	}
}

func TestSLATargets(t *testing.T) {
	cfg, _ := ByName("DLRM-RMC1")
	if cfg.SLA(SLAMedium) != 100*time.Millisecond {
		t.Errorf("medium SLA = %v", cfg.SLA(SLAMedium))
	}
	if cfg.SLA(SLALow) != 50*time.Millisecond {
		t.Errorf("low SLA = %v", cfg.SLA(SLALow))
	}
	if cfg.SLA(SLAHigh) != 150*time.Millisecond {
		t.Errorf("high SLA = %v", cfg.SLA(SLAHigh))
	}
}

func TestTableIIBottlenecksAndSLAs(t *testing.T) {
	want := map[string]struct {
		class Bottleneck
		sla   time.Duration
	}{
		"DLRM-RMC1": {EmbeddingDominated, 100 * time.Millisecond},
		"DLRM-RMC2": {EmbeddingDominated, 400 * time.Millisecond},
		"DLRM-RMC3": {MLPDominated, 100 * time.Millisecond},
		"NCF":       {MLPDominated, 5 * time.Millisecond},
		"WnD":       {MLPDominated, 25 * time.Millisecond},
		"MT-WnD":    {MLPDominated, 25 * time.Millisecond},
		"DIN":       {AttentionDominated, 100 * time.Millisecond},
		"DIEN":      {AttentionDominated, 35 * time.Millisecond},
	}
	for name, w := range want {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Class != w.class {
			t.Errorf("%s class = %v, want %v", name, cfg.Class, w.class)
		}
		if cfg.SLAMedium != w.sla {
			t.Errorf("%s SLA = %v, want %v", name, cfg.SLAMedium, w.sla)
		}
	}
}

func TestConfigValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{}, // no name
		func() Config { c := smallCfg(); c.PredictFC = nil; return c }(),
		func() Config { c := smallCfg(); c.NumTasks = 0; return c }(),
		func() Config { c := smallCfg(); c.DenseInDim = 0; c.NumTables = 0; return c }(),
		func() Config { c := smallCfg(); c.EmbDim = 0; return c }(),
		func() Config { c := smallCfg(); c.SLAMedium = 0; return c }(),
		func() Config {
			c := smallCfg()
			c.SeqPool = SeqAttention // needs SeqTables/SeqLen/AttentionHidden
			return c
		}(),
		func() Config { c := smallCfg(); c.UseGMF = true; c.NumTables = 1; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config", i)
		}
	}
}

func TestForwardShapesAndRangeAllZooModels(t *testing.T) {
	for _, cfg := range Zoo() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m := MustNew(cfg, 42)
			rng := rand.New(rand.NewSource(1))
			for _, size := range []int{1, 3} {
				in := m.NewInput(rng, size)
				out := m.Forward(in)
				if out.Rows != size || out.Cols != 1 {
					t.Fatalf("output shape [%dx%d], want [%dx1]", out.Rows, out.Cols, size)
				}
				for _, v := range out.Data {
					if v < 0 || v > 1 {
						t.Fatalf("CTR %v outside [0,1]", v)
					}
				}
			}
		})
	}
}

func TestForwardDeterministicUnderSeed(t *testing.T) {
	cfg := smallCfg()
	run := func() *tensor.Tensor {
		m := MustNew(cfg, 7)
		in := m.NewInput(rand.New(rand.NewSource(3)), 4)
		return m.Forward(in)
	}
	a, b := run(), run()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("forward pass not deterministic under fixed seeds")
		}
	}
}

func TestForwardPanicsOnMissingDense(t *testing.T) {
	m := MustNew(smallCfg(), 1)
	in := m.NewInput(rand.New(rand.NewSource(1)), 2)
	in.Dense = nil
	defer func() {
		if recover() == nil {
			t.Error("expected panic on missing dense input")
		}
	}()
	m.Forward(in)
}

func TestForwardPanicsOnWrongTableCount(t *testing.T) {
	m := MustNew(smallCfg(), 1)
	in := m.NewInput(rand.New(rand.NewSource(1)), 2)
	in.Sparse = in.Sparse[:1]
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong sparse feature count")
		}
	}()
	m.Forward(in)
}

func TestInteractionDimMatchesAssembly(t *testing.T) {
	// Forward already panics if the assembled width deviates from
	// InteractionDim; exercising all zoo models pins that contract.
	for _, cfg := range Zoo() {
		m := MustNew(cfg, 11)
		in := m.NewInput(rand.New(rand.NewSource(2)), 2)
		m.Forward(in) // would panic on mismatch
	}
}

func TestNewInputShapes(t *testing.T) {
	cfg, _ := ByName("DIN")
	m := MustNew(cfg, 5)
	in := m.NewInput(rand.New(rand.NewSource(4)), 6)
	if len(in.Sparse) != cfg.NumTables {
		t.Fatalf("sparse tables = %d, want %d", len(in.Sparse), cfg.NumTables)
	}
	// Sequence tables carry SeqLen lookups, plain tables LookupsPerTable.
	if got := len(in.Sparse[2][0]); got != cfg.SeqLen {
		t.Errorf("seq table lookups = %d, want %d", got, cfg.SeqLen)
	}
	if got := len(in.Sparse[0][0]); got != cfg.LookupsPerTable {
		t.Errorf("plain table lookups = %d, want %d", got, cfg.LookupsPerTable)
	}
	if in.Dense != nil {
		t.Error("DIN should have no dense input")
	}
}

func TestNewInputPanicsOnZeroSize(t *testing.T) {
	m := MustNew(smallCfg(), 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size 0")
		}
	}()
	m.NewInput(rand.New(rand.NewSource(1)), 0)
}

func TestProfileMatchesModelAccounting(t *testing.T) {
	// BuildProfile's analytic FLOP/byte math must agree with the
	// instantiated layers' own accounting for all zoo models.
	for _, cfg := range Zoo() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			m := MustNew(cfg, 3)
			p := BuildProfile(cfg)

			var wantDense int64
			if m.dense != nil {
				wantDense = m.dense.FLOPsPerItem()
			}
			if p.DenseFLOPs != wantDense {
				t.Errorf("DenseFLOPs = %d, want %d", p.DenseFLOPs, wantDense)
			}

			var wantPredict int64
			for _, pr := range m.predictors {
				wantPredict += pr.FLOPsPerItem()
			}
			if cfg.UseGMF {
				wantPredict += int64(cfg.EmbDim)
			}
			if p.PredictFLOPs != wantPredict {
				t.Errorf("PredictFLOPs = %d, want %d", p.PredictFLOPs, wantPredict)
			}

			if cfg.SeqPool != SeqNone {
				perPos := m.attention.FLOPsPerPosition()
				want := int64(cfg.SeqTables) * int64(cfg.SeqLen) * perPos
				if p.AttnFLOPs != want {
					t.Errorf("AttnFLOPs = %d, want %d", p.AttnFLOPs, want)
				}
			}
			if cfg.SeqPool == SeqAUGRU {
				want := int64(cfg.SeqTables) * int64(cfg.SeqLen) * m.gru.Cell.FLOPsPerStepPerItem()
				if p.GRUFLOPs != want {
					t.Errorf("GRUFLOPs = %d, want %d", p.GRUFLOPs, want)
				}
			}

			var wantEmb int64
			for ti, bag := range m.bags {
				lookups := cfg.LookupsPerTable
				if m.isSeqTable(ti) {
					lookups = cfg.SeqLen
				}
				wantEmb += bag.BytesPerItem(lookups)
			}
			if p.EmbBytes != wantEmb {
				t.Errorf("EmbBytes = %d, want %d", p.EmbBytes, wantEmb)
			}
		})
	}
}

func TestProfileBottleneckClassesMatchTableII(t *testing.T) {
	// The zoo's Table II classification must be consistent with the
	// profiles' own arithmetic: embedding-dominated models move far more
	// bytes than MLP-dominated ones relative to their compute.
	get := func(name string) Profile {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return BuildProfile(cfg)
	}
	rmc1, rmc3, ncf, dien := get("DLRM-RMC1"), get("DLRM-RMC3"), get("NCF"), get("DIEN")

	if rmc1.EmbBytes <= rmc3.EmbBytes {
		t.Errorf("RMC1 emb bytes %d should exceed RMC3 %d", rmc1.EmbBytes, rmc3.EmbBytes)
	}
	if ncf.MLPFLOPs() <= ncf.AttnFLOPs+ncf.GRUFLOPs {
		t.Error("NCF should be MLP-dominated in FLOPs")
	}
	if dien.GRUFLOPs == 0 {
		t.Error("DIEN must have recurrent FLOPs")
	}
	if dien.GRUFLOPs+dien.AttnFLOPs <= dien.MLPFLOPs() {
		t.Errorf("DIEN sequence FLOPs (%d) should dominate MLP FLOPs (%d)",
			dien.GRUFLOPs+dien.AttnFLOPs, dien.MLPFLOPs())
	}
}

func TestRankTopN(t *testing.T) {
	ctrs := tensor.FromSlice(5, 1, []float32{0.1, 0.9, 0.5, 0.9, 0.2})
	top := RankTopN(ctrs, 3)
	if len(top) != 3 {
		t.Fatalf("got %d results", len(top))
	}
	if top[0].Item != 1 || top[1].Item != 3 || top[2].Item != 2 {
		t.Errorf("ranking = %+v", top)
	}
	if got := RankTopN(ctrs, 100); len(got) != 5 {
		t.Errorf("over-asking should clamp: got %d", len(got))
	}
	if got := RankTopN(ctrs, 0); got != nil {
		t.Errorf("n=0 should return nil, got %v", got)
	}
}

func TestRankTopNPanicsOnMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RankTopN(tensor.New(3, 2), 1)
}

// Property: for any valid small config, InteractionDim is positive and the
// forward output shape follows the input size.
func TestForwardShapeProperty(t *testing.T) {
	f := func(tables8, lookups8, dim8, size8 uint8) bool {
		cfg := smallCfg()
		cfg.NumTables = int(tables8%4) + 1
		cfg.LookupsPerTable = int(lookups8%8) + 1
		cfg.EmbDim = int(dim8%16) + 1
		if err := cfg.Validate(); err != nil {
			return true
		}
		m := MustNew(cfg, 9)
		size := int(size8%6) + 1
		out := m.Forward(m.NewInput(rand.New(rand.NewSource(1)), size))
		return out.Rows == size && out.Cols == 1 && cfg.InteractionDim() > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBottleneckString(t *testing.T) {
	if EmbeddingDominated.String() != "embedding-dominated" ||
		MLPDominated.String() != "MLP-dominated" ||
		AttentionDominated.String() != "attention-dominated" {
		t.Error("Bottleneck.String mismatch")
	}
}

func TestSLATargetString(t *testing.T) {
	if SLALow.String() != "low" || SLAMedium.String() != "medium" || SLAHigh.String() != "high" {
		t.Error("SLATarget.String mismatch")
	}
	if len(AllSLATargets()) != 3 {
		t.Error("AllSLATargets should have 3 entries")
	}
}
