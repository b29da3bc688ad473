package deeprecsys

import (
	"context"
	"os"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// TestSubmitToSingleModel pins that SubmitTo is a multi-tenant-only
// surface, and that the one anonymous slot of a single-model Service shows
// through nowhere: no tenants, no tenant on a reply, no splitter (and so no
// mutex) on Submit — on a fleet of one and of two.
func TestSubmitToSingleModel(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []int{1, 2} {
		svc, err := sys.Serve(ServeOptions{Workers: 1, Replicas: replicas})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if _, err := svc.SubmitTo(context.Background(), "ncf", 10, 0); err == nil {
			t.Error("SubmitTo accepted on a single-model service")
		}
		if got := svc.Tenants(); got != nil {
			t.Errorf("Tenants() = %v on single-model service", got)
		}
		if svc.split != nil {
			t.Error("single-model service holds a tenant splitter")
		}
		for i := 0; i < 2*replicas; i++ {
			reply, err := svc.Submit(context.Background(), 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Tenant != "" {
				t.Errorf("%d replicas: Reply.Tenant = %q on a single-model service", replicas, reply.Tenant)
			}
		}
		if st := svc.Stats(); len(st.Tenants) != 0 {
			t.Errorf("single-model Stats().Tenants = %+v", st.Tenants)
		}
	}
}

// storeTenants is two store-backed tenants over one model architecture.
func storeTenants(bStore string) []TenantSpec {
	return []TenantSpec{
		{Model: "NCF", Name: "a", Store: "synth,cache=lru:500", Rows: 20000},
		{Model: "NCF", Name: "b", Seed: 3, Store: bStore, Rows: 2000},
	}
}

// TestAutoScaleStoreTenants: the autoscaler grows a store-backed
// two-tenant fleet through the same constructor AddReplica uses — the grown
// replica has its own instance of both tenants' models, so its cache
// counters start at zero and then count its own traffic only — and Close
// releases every instance.
func TestAutoScaleStoreTenants(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	// No query meets a 1ns SLA: the autoscaler grows as soon as the window
	// holds enough samples to say so (32), and MaxReplicas stops it at two.
	svc, err := sys.Serve(ServeOptions{
		Workers: 1, BatchSize: 16, SLA: time.Nanosecond, TuneInterval: 5 * time.Millisecond,
		AutoScale: true, MinReplicas: 1, MaxReplicas: 2,
		Tenants: storeTenants("synth,cache=lru:500"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := svc.Submit(context.Background(), 20+i%7, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	lookups := func(r ReplicaStats) uint64 { return r.EmbHits + r.EmbMisses }

	submit(31)
	if st := svc.Stats(); st.Replicas != 1 {
		t.Fatalf("%d replicas before the window could show a breach", st.Replicas)
	}
	submit(1)
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Replicas < 2 {
		if time.Now().After(deadline) {
			t.Fatal("autoscaler never grew the store-backed tenant fleet")
		}
		time.Sleep(time.Millisecond)
	}
	before := svc.Stats()
	founder, grown := before.PerReplica[0], before.PerReplica[1]
	if lookups(founder) == 0 || lookups(grown) != 0 {
		t.Fatalf("after growth: founder %d lookups, grown replica %d (want its own counters, at zero)", lookups(founder), lookups(grown))
	}
	perItem := lookups(founder) / founder.WorkItems

	submit(10)
	after := svc.Stats()
	for _, r := range after.PerReplica {
		if got := lookups(r); got == 0 || got != perItem*r.WorkItems {
			t.Errorf("replica %d counted %d lookups for %d items, want %d per item", r.ID, got, r.WorkItems, perItem)
		}
	}
	if after.ScaleUps != 1 || len(after.Tenants) != 2 || after.Tenants[0].TableRows != 20000 {
		t.Errorf("ScaleUps %d, tenants %+v", after.ScaleUps, after.Tenants)
	}
	if got := len(svc.owned); got != 4 {
		t.Errorf("service owns %d instances, want 2 tenants x 2 replicas", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if svc.owned != nil {
		t.Errorf("%d instances not released by Close", len(svc.owned))
	}
}

// TestAddReplicaFailedBuild: a joining replica whose instances cannot all
// be built (tenant b's table files are gone) does not join, and what was
// built for it (tenant a's instance) is released, not kept.
func TestAddReplicaFailedBuild(t *testing.T) {
	dir := t.TempDir()
	cfg, err := model.ByName("NCF")
	if err != nil {
		t.Fatal(err)
	}
	for table := 0; table < cfg.NumTables; table++ {
		if _, err := embstore.Generate(dir, 3, table, 2000, cfg.EmbDim, embstore.Shard{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(ServeOptions{Workers: 1, Replicas: 2, Tenants: storeTenants("mmap:" + dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	owned := len(svc.owned)
	if id, err := svc.AddReplica(false); err == nil {
		t.Fatalf("AddReplica joined replica %d without tenant b's tables", id)
	}
	if st := svc.Stats(); st.Replicas != 2 || len(st.PerReplica) != 2 {
		t.Errorf("failed AddReplica left %d replicas (%d listed), want 2", st.Replicas, len(st.PerReplica))
	}
	if got := len(svc.owned); got != owned {
		t.Errorf("failed AddReplica left %d owned instances, had %d", got, owned)
	}
	// The fleet still serves both tenants from the mappings it holds.
	for _, name := range svc.Tenants() {
		if _, err := svc.SubmitTo(context.Background(), name, 16, 2); err != nil {
			t.Errorf("tenant %s after the failed join: %v", name, err)
		}
	}
}
