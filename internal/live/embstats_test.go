package live

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// storeModel builds a store-backed test model: synthetic at-scale tables of
// `rows` rows behind an LRU hot-row cache of `cacheRows` rows.
func storeModel(t testing.TB, rows, cacheRows int) *model.Model {
	t.Helper()
	cfg, err := model.ByName("NCF")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = cfg.WithTableScale(rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := embstore.ParseSpec(fmt.Sprintf("synth,cache=lru:%d", cacheRows))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tables = func(table, rws, dim int, _ *rand.Rand, sd int64) (nn.RowStore, error) {
		return sp.Open(sd, table, rws, dim, embstore.Shard{})
	}
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// A store-backed service surfaces the embedding-tier counters through its
// online snapshot; a classic in-memory service reports none.
func TestStoreBackedServiceReportsEmbStats(t *testing.T) {
	s := newService(t, oneTenant(t, Config{Workers: 2}, TenantConfig{
		Model:     storeModel(t, 20000, 500),
		BatchSize: 32,
		Access:    workload.ZipfAccess{S: 1.3, V: 1},
	}))
	for i := 0; i < 30; i++ {
		if _, err := s.Submit(context.Background(), Query{Candidates: 32, TopN: 4}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if !st.EmbStore {
		t.Fatal("store-backed service reports EmbStore=false")
	}
	lookups := st.EmbHits + st.EmbMisses
	if lookups == 0 {
		t.Fatal("no embedding lookups counted")
	}
	if st.EmbMisses == 0 {
		t.Error("cold cache recorded zero misses")
	}
	if st.EmbBytesRead == 0 {
		t.Error("backing-store reads recorded zero bytes")
	}
	if st.EmbHitRate < 0 || st.EmbHitRate > 1 {
		t.Errorf("hit rate %v outside [0,1]", st.EmbHitRate)
	}

	classic := newService(t, Config{Workers: 1, BatchSize: 8})
	if _, err := classic.Submit(context.Background(), Query{Candidates: 8}); err != nil {
		t.Fatal(err)
	}
	if cst := classic.Stats(); cst.EmbStore || cst.EmbHits+cst.EmbMisses != 0 {
		t.Errorf("classic in-memory service reports embedding stats: %+v", cst)
	}
}

// Skewed access must make the hot-row cache effective: at the same cache
// size, Zipf traffic yields a strictly higher hit rate than uniform.
func TestZipfAccessBeatsUniformHitRate(t *testing.T) {
	run := func(access workload.IndexDist) float64 {
		s := newService(t, oneTenant(t, Config{Workers: 2}, TenantConfig{
			Model:     storeModel(t, 50000, 2000),
			BatchSize: 32,
			Access:    access,
		}))
		for i := 0; i < 40; i++ {
			if _, err := s.Submit(context.Background(), Query{Candidates: 64}); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.EmbHits+st.EmbMisses == 0 {
			t.Fatal("no lookups counted")
		}
		return st.EmbHitRate
	}
	zipf := run(workload.ZipfAccess{S: 1.5, V: 1})
	uniform := run(nil)
	if zipf <= uniform {
		t.Errorf("zipf hit rate %.3f not above uniform %.3f", zipf, uniform)
	}
	if zipf < 0.5 {
		t.Errorf("zipf(1.5) hit rate %.3f implausibly low for a 4%% cache", zipf)
	}
}

// Explicit uniform access must be indistinguishable from the nil default:
// withDefaults strips it to the nil-sampler fast path, so the per-worker
// draw streams — and therefore the ranked outputs — are identical.
func TestUniformAccessMatchesNilAccess(t *testing.T) {
	m := testModel(t) // shared: weights are read-only under Submit
	run := func(access workload.IndexDist) [][]model.Ranked {
		s := newService(t, oneTenant(t, Config{Workers: 1, Seed: 9}, TenantConfig{Model: m, BatchSize: 64, Access: access}))
		var out [][]model.Ranked
		for i := 0; i < 8; i++ {
			r, err := s.Submit(context.Background(), Query{Candidates: 48, TopN: 5})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Recs)
		}
		return out
	}
	want := run(nil)
	got := run(workload.UniformAccess{})
	for q := range want {
		if len(want[q]) != len(got[q]) {
			t.Fatalf("query %d: %d recs vs %d", q, len(want[q]), len(got[q]))
		}
		for k := range want[q] {
			if want[q][k] != got[q][k] {
				t.Fatalf("query %d rec %d: %+v vs %+v", q, k, want[q][k], got[q][k])
			}
		}
	}
}

// One seed, one stream per lane: a Zipf source (drawing through rand.New on
// the lane's Stream) and the dense fill (drawing on the Stream directly)
// interleave on one state, so a one-worker service replies identically on a
// second run, on both lanes, and differently under another seed.
func TestZipfAccessRepliesRepeatUnderSeed(t *testing.T) {
	cfg, err := model.ByName("DLRM-RMC1") // dense features and multi-lookup tables
	if err != nil {
		t.Fatal(err)
	}
	if cfg, err = cfg.WithTableScale(5000, 0); err != nil {
		t.Fatal(err)
	}
	m := model.MustNew(cfg, 1)
	run := func(seed int64, gpu *platform.GPU) [][]model.Ranked {
		tc := TenantConfig{Model: m, BatchSize: 16, Access: workload.ZipfAccess{S: 1.2, V: 1}}
		if gpu != nil {
			tc.GPUThreshold = 40
		}
		s := newService(t, oneTenant(t, Config{Workers: 1, Seed: seed, GPU: gpu}, tc))
		var out [][]model.Ranked
		for i := 0; i < 6; i++ {
			r, err := s.Submit(context.Background(), Query{Candidates: 24 + 8*i, TopN: 5}) // 24..64: both sides of the threshold
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Recs)
		}
		return out
	}
	for _, gpu := range []*platform.GPU{nil, testGPU(1)} {
		first, again, other := run(9, gpu), run(9, gpu), run(10, gpu)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("gpu=%v: two runs under seed 9 replied differently:\n%v\n%v", gpu != nil, first, again)
		}
		if reflect.DeepEqual(first, other) {
			t.Fatalf("gpu=%v: seeds 9 and 10 replied identically", gpu != nil)
		}
	}
}
