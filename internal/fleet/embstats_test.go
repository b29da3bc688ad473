package fleet

import (
	"context"
	"math/rand"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// storeModel builds a store-backed replica model: synthetic at-scale tables
// behind an LRU hot-row cache. Each replica gets its OWN model so per-replica
// cache counters stay per-replica truth (a shared model would double-count).
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
	cfg.Tables = func(table, rws, dim int, _ *rand.Rand, sd int64) (nn.RowStore, error) {
		st, err := embstore.NewSynth(sd, table, rws, dim, embstore.Shard{})
		if err != nil {
			return nil, err
		}
		return embstore.NewCached(st, embstore.CacheConfig{Policy: embstore.CacheLRU, Rows: cacheRows})
	}
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// The fleet snapshot must merge the embedding-tier counters exactly — sums
// over per-replica counters, hit rate recomputed from the summed counts —
// and fold a removed replica's final counters so the totals stay monotone.
func TestFleetMergesEmbStats(t *testing.T) {
	mk := func(seed int64) live.Config {
		return live.Config{Workers: 1, Seed: seed, Tenants: []live.TenantConfig{{
			Name: "NCF", Model: storeModel(t, 20000, 500), BatchSize: 16, Access: workload.ZipfAccess{S: 1.3, V: 1},
		}}}
	}
	f := newFleet(t, []live.Config{mk(1), mk(2)}, nil)
	for i := 0; i < 24; i++ {
		if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 32}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if !st.EmbStore {
		t.Fatal("store-backed fleet reports EmbStore=false")
	}
	var hits, misses, evics, bytesRead uint64
	for _, rs := range st.Replicas {
		if !rs.EmbStore {
			t.Errorf("replica %d reports EmbStore=false", rs.ID)
		}
		hits += rs.EmbHits
		misses += rs.EmbMisses
		evics += rs.EmbEvictions
		bytesRead += rs.EmbBytesRead
	}
	if hits+misses == 0 {
		t.Fatal("no embedding lookups counted fleet-wide")
	}
	if st.EmbHits != hits || st.EmbMisses != misses || st.EmbEvictions != evics || st.EmbBytesRead != bytesRead {
		t.Errorf("fleet counters (%d/%d/%d/%d) != replica sums (%d/%d/%d/%d)",
			st.EmbHits, st.EmbMisses, st.EmbEvictions, st.EmbBytesRead, hits, misses, evics, bytesRead)
	}
	if want := float64(hits) / float64(hits+misses); st.EmbHitRate != want {
		t.Errorf("fleet hit rate %v, want %v recomputed from summed counters", st.EmbHitRate, want)
	}

	// Removing a replica folds its final counters into the retired totals.
	pre := st.EmbHits + st.EmbMisses
	if err := f.Remove(st.Replicas[1].ID); err != nil {
		t.Fatal(err)
	}
	st2 := f.Stats()
	if !st2.EmbStore {
		t.Error("EmbStore flag lost after removal")
	}
	if st2.EmbHits+st2.EmbMisses < pre {
		t.Errorf("lookup totals dropped after removal: %d < %d", st2.EmbHits+st2.EmbMisses, pre)
	}
}
