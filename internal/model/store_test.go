package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// scaled returns a zoo config with its tables shrunk to `rows` so store-vs-
// dense comparisons stay fast.
func scaled(t *testing.T, name string, rows int) Config {
	t.Helper()
	cfg, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = cfg.WithTableScale(rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func bitsEqual(t *testing.T, label string, want, got *tensor.Tensor) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape [%dx%d] vs [%dx%d]", label, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for k := range want.Data {
		if math.Float32bits(want.Data[k]) != math.Float32bits(got.Data[k]) {
			t.Fatalf("%s: outputs differ at %d: %x vs %x", label, k, math.Float32bits(want.Data[k]), math.Float32bits(got.Data[k]))
		}
	}
}

// Acceptance: mmap and cached backends must match the default in-memory
// path bit-for-bit on the same RNG stream at small scale. The stream-seeded
// openers consume the model construction stream exactly where the dense
// path would draw each table, so table rows AND all downstream weights
// (attention, GRU, predictors) are identical.
func TestStreamStoreModelsMatchClassicBitwise(t *testing.T) {
	const seed, rows = 7, 300
	// RMC1 covers sum pooling; DIEN covers concat pooling, sequence-table
	// LookupInto, attention, and the AUGRU stack behind the tables.
	for _, name := range []string{"DLRM-RMC1", "DIEN"} {
		cfg := scaled(t, name, rows)
		classic := MustNew(cfg, seed)

		streamOpener := func(wrap func(nn.RowStore) (nn.RowStore, error)) TableOpener {
			dir := t.TempDir()
			return func(table, rws, dim int, rng *rand.Rand, sd int64) (nn.RowStore, error) {
				path := filepath.Join(dir, fmt.Sprintf("t%d.emb", table))
				if err := embstore.WriteFileStream(path, rng, sd, table, rws, dim); err != nil {
					return nil, err
				}
				st, err := embstore.OpenMapped(path)
				if err != nil {
					return nil, err
				}
				if wrap == nil {
					return st, nil
				}
				return wrap(st)
			}
		}

		variants := map[string]TableOpener{
			"mmap": streamOpener(nil),
			"cached-mmap": streamOpener(func(st nn.RowStore) (nn.RowStore, error) {
				return embstore.NewCached(st.(embstore.Store), embstore.CacheConfig{Policy: embstore.CacheLRU, Rows: 64})
			}),
			"dense-stream": func(table, rws, dim int, rng *rand.Rand, _ int64) (nn.RowStore, error) {
				return embstore.NewDenseStream(rng, rws, dim), nil
			},
		}

		in := classic.NewInput(rand.New(rand.NewSource(3)), 24)
		want := classic.Forward(in)
		for vname, opener := range variants {
			cfgV := cfg
			cfgV.Tables = opener
			mv, err := New(cfgV, seed)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, vname, err)
			}
			bitsEqual(t, name+"/"+vname, want, mv.Forward(in))
			if err := mv.Close(); err != nil {
				t.Fatalf("%s/%s: Close: %v", name, vname, err)
			}
		}
	}
}

// The per-row-seeded family (the production at-scale path) must be
// self-consistent: dense, synth, mmap, and cached backends all produce the
// same model output bit-for-bit.
func TestPerRowStoreBackendsBitIdentical(t *testing.T) {
	const seed, rows = 11, 257
	cfg := scaled(t, "DLRM-RMC1", rows)
	dir := t.TempDir()
	for table := 0; table < cfg.NumTables; table++ {
		if _, err := embstore.Generate(dir, seed, table, rows, cfg.EmbDim, embstore.Shard{}, nil); err != nil {
			t.Fatal(err)
		}
	}

	open := func(spec string) TableOpener {
		sp, err := embstore.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return func(table, rws, dim int, _ *rand.Rand, sd int64) (nn.RowStore, error) {
			return sp.Open(sd, table, rws, dim, embstore.Shard{})
		}
	}

	var want *tensor.Tensor
	var in *Input
	for _, spec := range []string{"dense", "synth", "mmap:" + dir, "synth,cache=lru:64", "mmap:" + dir + ",cache=lfu:16KB"} {
		cfgV := cfg
		cfgV.Tables = open(spec)
		m, err := New(cfgV, seed)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if in == nil {
			in = m.NewInput(rand.New(rand.NewSource(5)), 16)
			want = m.Forward(in)
		} else {
			bitsEqual(t, spec, want, m.Forward(in))
		}
		if _, ok := m.EmbStats(); !ok {
			t.Errorf("%s: store-backed model reports no embedding stats", spec)
		}
		m.Close()
	}
}

// A sharded replica serves a narrowed row range: the store presents the
// shard's rows, TableRows() reflects it, and generated indices stay within
// the shard.
func TestShardedStoreNarrowsDraws(t *testing.T) {
	const seed, rows, shards = 13, 240, 3
	cfg := scaled(t, "DLRM-RMC1", rows)
	for idx := 0; idx < shards; idx++ {
		sh := embstore.Shard{Index: idx, Count: shards}
		cfgV := cfg
		cfgV.Tables = func(table, rws, dim int, _ *rand.Rand, sd int64) (nn.RowStore, error) {
			return embstore.NewSynth(sd, table, rws, dim, sh)
		}
		m, err := New(cfgV, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, n := sh.Range(rows)
		if m.TableRows() != n {
			t.Fatalf("shard %d: TableRows() = %d, want %d", idx, m.TableRows(), n)
		}
		in := m.NewInput(rand.New(rand.NewSource(1)), 8)
		for t2, perItem := range in.Sparse {
			for _, idxs := range perItem {
				for _, ix := range idxs {
					if ix < 0 || ix >= n {
						t.Fatalf("shard %d table %d drew index %d outside [0,%d)", idx, t2, ix, n)
					}
				}
			}
		}
		if err := m.ValidateInput(in); err != nil {
			t.Fatalf("shard %d: generated input invalid: %v", idx, err)
		}
		m.Forward(in) // must not panic
		m.Close()
	}
}

func TestWithTableScale(t *testing.T) {
	cfg, err := ByName("DLRM-RMC1")
	if err != nil {
		t.Fatal(err)
	}
	same, err := cfg.WithTableScale(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if same.TableRows != DefaultTableRows || same.LookupsPerTable != cfg.LookupsPerTable {
		t.Fatalf("zero scale changed geometry: %+v", same)
	}
	up, err := cfg.WithTableScale(1_000_000, 40)
	if err != nil {
		t.Fatal(err)
	}
	if up.TableRows != 1_000_000 || up.LookupsPerTable != 40 {
		t.Fatalf("scale not applied: rows %d lookups %d", up.TableRows, up.LookupsPerTable)
	}
	if cfg.TableRows != DefaultTableRows {
		t.Fatal("WithTableScale mutated the receiver")
	}
	if _, err := cfg.WithTableScale(-1, 0); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := cfg.WithTableScale(0, -2); err == nil {
		t.Error("negative lookups accepted")
	}
	noTables := Config{Name: "dense-only", DenseInDim: 8, PredictFC: []int{4}, NumTasks: 1, SLAMedium: cfg.SLAMedium}
	if _, err := noTables.WithTableScale(100, 0); err == nil {
		t.Error("table scale accepted on a model without tables")
	}
}

// Satellite regression: an out-of-range sparse index surfaces as a typed
// *nn.IndexError from input validation — and the scaled-geometry path keeps
// errors aligned with the effective row count.
func TestValidateInputOutOfRange(t *testing.T) {
	m := MustNew(scaled(t, "DLRM-RMC1", 50), 1)
	in := m.NewInput(rand.New(rand.NewSource(2)), 4)
	if err := m.ValidateInput(in); err != nil {
		t.Fatalf("generated input invalid: %v", err)
	}
	in.Sparse[5][2][7] = 50 // one past the scaled table's last row
	err := m.ValidateInput(in)
	if err == nil {
		t.Fatal("corrupt index passed validation")
	}
	var ie *nn.IndexError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not wrap *nn.IndexError", err)
	}
	if ie.Table != 5 || ie.Index != 50 || ie.Rows != 50 {
		t.Fatalf("IndexError = %+v, want table 5 index 50 rows 50", ie)
	}
	if !strings.Contains(err.Error(), "table 5") {
		t.Fatalf("error message %q does not name the table", err)
	}
}

// NewInputSampled must consume src draws in the documented order and place
// them verbatim.
func TestNewInputSampledOrder(t *testing.T) {
	m := MustNew(scaled(t, "DLRM-RMC1", 1000), 1)
	src := &countingSource{}
	in := m.NewInputSampled(nil, NewStream(4), 3, src)
	want := 0
	for t2 := range in.Sparse {
		for i := range in.Sparse[t2] {
			for j := range in.Sparse[t2][i] {
				if in.Sparse[t2][i][j] != want%1000 {
					t.Fatalf("table %d item %d lookup %d = %d, want %d", t2, i, j, in.Sparse[t2][i][j], want%1000)
				}
				want++
			}
		}
	}
	if src.n != want {
		t.Fatalf("source consumed %d draws, structure has %d lookups", src.n, want)
	}
}

type countingSource struct{ n int }

func (c *countingSource) Next() int { v := c.n % 1000; c.n++; return v }
