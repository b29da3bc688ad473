package deeprecsys

import (
	"context"
	"testing"
)

// A store-backed system serves through the public API and surfaces the
// embedding-tier counters in ServiceStats.
func TestServeWithEmbeddingStore(t *testing.T) {
	sys, err := NewSystem("DLRM-RMC1", "skylake",
		WithTableScale(50000, 0),
		WithEmbeddingStore("synth,cache=lru:2000"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	svc, err := sys.Serve(ServeOptions{Workers: 2, BatchSize: 32, Access: "zipf:1.3"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 20; i++ {
		if _, err := svc.Submit(context.Background(), 32, 3); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if !st.EmbStore {
		t.Fatal("store-backed service reports EmbStore=false")
	}
	if st.Tenants[0].TableRows != 50000 {
		t.Errorf("TableRows = %d, want 50000", st.Tenants[0].TableRows)
	}
	if st.EmbHits+st.EmbMisses == 0 {
		t.Fatal("no cache lookups counted")
	}
	if st.EmbBytesRead == 0 {
		t.Error("no backing-store bytes counted")
	}
	if st.EmbHitRate < 0 || st.EmbHitRate > 1 {
		t.Errorf("hit rate %v outside [0,1]", st.EmbHitRate)
	}
}

// ShardTables splits the row space across fleet replicas: every replica
// serves its own shard-mapped model with its own cache counters, and the
// membership is fixed (AddReplica refused).
func TestServeShardedFleet(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake",
		WithTableScale(30000, 0),
		WithEmbeddingStore("synth,cache=lru:1000"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	svc, err := sys.Serve(ServeOptions{Workers: 1, BatchSize: 32, Replicas: 3, ShardTables: true, Access: "zipf:1.2"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i := 0; i < 30; i++ {
		if _, err := svc.Submit(context.Background(), 24, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if !st.EmbStore || st.Replicas != 3 {
		t.Fatalf("EmbStore=%v Replicas=%d, want store-backed 3-replica fleet", st.EmbStore, st.Replicas)
	}
	if st.Tenants[0].TableRows != 30000 {
		t.Errorf("TableRows = %d, want the full logical table 30000", st.Tenants[0].TableRows)
	}
	var sum uint64
	for _, r := range st.PerReplica {
		sum += r.EmbHits + r.EmbMisses
	}
	if sum == 0 {
		t.Fatal("no per-replica cache traffic on a sharded fleet")
	}
	if got := st.EmbHits + st.EmbMisses; got != sum {
		t.Errorf("fleet lookups %d != per-replica sum %d", got, sum)
	}
	if _, err := svc.AddReplica(false); err == nil {
		t.Error("AddReplica accepted on a table-sharded fleet")
	}
}

// A store-backed (unsharded) fleet gives each replica its own model, so
// growing the fleet keeps per-replica counters independent.
func TestStoreFleetAddReplica(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake",
		WithTableScale(20000, 0),
		WithEmbeddingStore("synth,cache=lru:500"))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	svc, err := sys.Serve(ServeOptions{Workers: 1, BatchSize: 16, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	id, err := svc.AddReplica(false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 18; i++ {
		if _, err := svc.Submit(context.Background(), 16, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Replicas != 3 {
		t.Fatalf("Replicas = %d after AddReplica, want 3", st.Replicas)
	}
	found := false
	for _, r := range st.PerReplica {
		if r.ID == id {
			found = true
			if r.EmbHits+r.EmbMisses == 0 {
				t.Error("grown replica served no store-backed lookups")
			}
		}
	}
	if !found {
		t.Fatalf("added replica %d missing from PerReplica", id)
	}
}

func TestEmbeddingStoreOptionValidation(t *testing.T) {
	if _, err := NewSystem("NCF", "skylake", WithEmbeddingStore("flash:/tmp")); err == nil {
		t.Error("unknown store backend accepted")
	}
	if _, err := NewSystem("NCF", "skylake", WithTableScale(-5, 0)); err == nil {
		t.Error("negative table rows accepted")
	}

	classic, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	defer classic.Close()
	if _, err := classic.Serve(ServeOptions{ShardTables: true, Replicas: 2}); err == nil {
		t.Error("ShardTables accepted without an embedding store")
	}
	if _, err := classic.Serve(ServeOptions{Access: "zipf:0.5"}); err == nil {
		t.Error("invalid access spec accepted")
	}

	stored, err := NewSystem("NCF", "skylake", WithEmbeddingStore("synth"))
	if err != nil {
		t.Fatal(err)
	}
	defer stored.Close()
	if _, err := stored.Serve(ServeOptions{ShardTables: true}); err == nil {
		t.Error("ShardTables accepted without a fleet")
	}
	if _, err := stored.Serve(ServeOptions{ShardTables: true, Replicas: 2, AutoScale: true, SLA: 1}); err == nil {
		t.Error("ShardTables accepted with AutoScale")
	}
}
