package deeprecsys

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// TestSubmitToSingleModel pins that a single-model Service is the one-tenant
// case everywhere the API shows tenants: its one tenant is named after its
// model, SubmitTo addresses it by that name, and Tenants(), Reply.Tenant and
// Stats().Tenants all name it — on a fleet of one and of two.
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
		if got := svc.Tenants(); len(got) != 1 || got[0] != "NCF" {
			t.Errorf("Tenants() = %v on a single-model NCF service, want [NCF]", got)
		}
		if _, err := svc.SubmitTo(context.Background(), "ncf", 10, 0); err == nil {
			t.Error("SubmitTo accepted a tenant the service does not have")
		}
		for i := 0; i < 2*replicas; i++ {
			reply, err := svc.Submit(context.Background(), 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			to, err := svc.SubmitTo(context.Background(), "NCF", 10, 2)
			if err != nil {
				t.Fatal(err)
			}
			if reply.Tenant != "NCF" || to.Tenant != "NCF" {
				t.Errorf("%d replicas: Reply.Tenant = %q (Submit), %q (SubmitTo), want NCF", replicas, reply.Tenant, to.Tenant)
			}
		}
		st := svc.Stats()
		if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "NCF" || st.Tenants[0].Model != "NCF" ||
			st.Tenants[0].Ledger != st.Ledger || st.Tenants[0].Completed != uint64(4*replicas) {
			t.Errorf("%d replicas: Stats().Tenants = %+v, want the one NCF tenant holding the whole ledger", replicas, st.Tenants)
		}
	}
}

// TestTopLevelLedgerIsTheTenantFold pins that a Service's ledger is the sum
// of its tenants' at every level, conserved, with the front-door counts
// beside it balancing it: under a tenant cap that refuses most of a
// concurrent burst, and with a Submit after Close that reaches no replica.
func TestTopLevelLedgerIsTheTenantFold(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	check := func(setup string, st ServiceStats) {
		t.Helper()
		var sum Ledger
		for _, ts := range st.Tenants {
			if !ts.Conserved() || !ts.Balances(ts.Ledger) {
				t.Errorf("%s: tenant %s: front door %+v, ledger %+v", setup, ts.Tenant, ts.FrontDoor, ts.Ledger)
			}
			sum = sum.Add(ts.Ledger)
		}
		for _, r := range st.PerReplica {
			if !r.Conserved() {
				t.Errorf("%s: replica %d ledger not conserved: %+v", setup, r.ID, r.Ledger)
			}
		}
		if st.Ledger != sum {
			t.Errorf("%s: service ledger %+v != tenant sum %+v", setup, st.Ledger, sum)
		}
		if !st.Conserved() || !st.Balances(st.Ledger) {
			t.Errorf("%s: service front door %+v, ledger %+v", setup, st.FrontDoor, st.Ledger)
		}
	}

	capped, err := sys.Serve(ServeOptions{Workers: 1, Replicas: 2, Tenants: []TenantSpec{{Model: "NCF", MaxOutstanding: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := capped.Submit(context.Background(), 256, 0); err != nil && !errors.Is(err, ErrOverloaded) {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := capped.Stats()
	if st.FrontSubmitted != 64 || st.CapShed == 0 {
		t.Errorf("cap: %d taken in, %d cap-shed; want 64, some", st.FrontSubmitted, st.CapShed)
	}
	check("cap", st)

	plain, err := sys.Serve(ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if _, err := plain.Submit(context.Background(), 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Submit(context.Background(), 10, 0); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Submit after Close = %v, want ErrServiceClosed", err)
	}
	st = plain.Stats()
	if st.FrontSubmitted != 4 || st.Unrouted != 1 || st.Completed != 3 {
		t.Errorf("closed: %d taken in, %d unrouted, %d completed; want 4, 1, 3", st.FrontSubmitted, st.Unrouted, st.Completed)
	}
	check("closed", st)
}

// TestRetryUnderChaosBalances: a served two-tenant fleet with Retry, whose
// replicas chaos crashes mid-flight and restarts, keeps every ledger
// conserved and every front door balanced, per tenant and at the top, once
// its submitters have returned.
func TestRetryUnderChaosBalances(t *testing.T) {
	sys, err := NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(ServeOptions{
		Workers: 1, BatchSize: 16, Replicas: 3, Retry: true,
		Chaos:   "every=2ms,crash=1,restart=10ms",
		Tenants: []TenantSpec{{Model: "NCF", Name: "a"}, {Model: "NCF", Name: "b", Seed: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := svc.SubmitTo(context.Background(), []string{"a", "b"}[(g+i)%2], 256+i%64, 0)
				if err != nil && !errors.Is(err, ErrReplicaDown) {
					t.Error(err)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for st := svc.Stats(); st.Retried == 0 || st.Restarts < 2; st = svc.Stats() {
		if time.Now().After(deadline) {
			t.Errorf("after 20 s: %d crashes, %d restarts, %d retries", st.Crashes, st.Restarts, st.Retried)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st := svc.Stats()
	var sum Ledger
	for _, ts := range st.Tenants {
		if !ts.Conserved() || !ts.Balances(ts.Ledger) {
			t.Errorf("tenant %s: front door %+v, ledger %+v", ts.Tenant, ts.FrontDoor, ts.Ledger)
		}
		sum = sum.Add(ts.Ledger)
	}
	if st.Ledger != sum || !st.Conserved() || !st.Balances(st.Ledger) {
		t.Errorf("service: front door %+v, ledger %+v, tenant sum %+v", st.FrontDoor, st.Ledger, sum)
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
