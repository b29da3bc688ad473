package deeprecsys_test

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

func TestParseTenants(t *testing.T) {
	for _, spec := range []string{"", "none"} {
		specs, err := deeprecsys.ParseTenants(spec)
		if err != nil || specs != nil {
			t.Errorf("ParseTenants(%q) = %v, %v", spec, specs, err)
		}
	}

	specs, err := deeprecsys.ParseTenants(
		"DLRM-RMC1@name=ads,sla=100ms,share=3,batch=64,access=zipf:1.2+50000;WnD@share=1,cap=32,admission=queue:128")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d specs", len(specs))
	}
	ads := specs[0]
	if ads.Model != "DLRM-RMC1" || ads.Name != "ads" || ads.SLA != 100*time.Millisecond ||
		ads.Share != 3 || ads.BatchSize != 64 {
		t.Errorf("spec 0 = %+v", ads)
	}
	// '+' stands for ',' inside nested-grammar values.
	if ads.Access != "zipf:1.2,50000" {
		t.Errorf("access = %q", ads.Access)
	}
	if specs[1].Model != "WnD" || specs[1].MaxOutstanding != 32 || specs[1].Admission != "queue:128" {
		t.Errorf("spec 1 = %+v", specs[1])
	}

	bad := []string{
		";",                // empty tenant
		"NCF@",             // empty field list
		"NCF@sla",          // key without value
		"NCF@sla=nope",     // bad duration
		"NCF@share=x",      // bad float
		"NCF@batch=x",      // bad int
		"NCF@frobnicate=1", // unknown key
	}
	for _, spec := range bad {
		if _, err := deeprecsys.ParseTenants(spec); err == nil {
			t.Errorf("ParseTenants(%q) accepted", spec)
		}
	}

	// Satellite: unknown keys enumerate the valid vocabulary.
	_, err = deeprecsys.ParseTenants("NCF@frobnicate=1")
	if err == nil || !strings.Contains(err.Error(), "expected one of:") ||
		!strings.Contains(err.Error(), "sla") || !strings.Contains(err.Error(), "store") {
		t.Errorf("unknown tenant key error does not enumerate specs: %v", err)
	}
}

// serveTenants is the two-tenant shared pool used across the API tests:
// an FC-heavy and an embedding-heavy tenant with distinct SLAs and a 3:1
// traffic split, on one executor.
func serveTenants(t *testing.T, opts deeprecsys.ServeOptions) *deeprecsys.Service {
	t.Helper()
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	opts.Tenants = []deeprecsys.TenantSpec{
		{Model: "NCF", Name: "ranking", SLA: 50 * time.Millisecond, Share: 3, BatchSize: 16},
		{Model: "DLRM-RMC1", Name: "ads", SLA: 100 * time.Millisecond, Share: 1, BatchSize: 64},
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	svc, err := sys.Serve(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// TestTenantSplitExact pins the smooth-weighted-round-robin traffic split:
// 40 sequential Submit calls at a 3:1 share land exactly 30 on the heavy
// tenant and 10 on the light one, interleaved rather than bunched.
func TestTenantSplitExact(t *testing.T) {
	svc := serveTenants(t, deeprecsys.ServeOptions{})
	counts := map[string]int{}
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		reply, err := svc.Submit(ctx, 20, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[reply.Tenant]++
	}
	if counts["ranking"] != 30 || counts["ads"] != 10 {
		t.Errorf("split = %v, want ranking:30 ads:10", counts)
	}
}

// TestSubmitToAndTenantStats pins targeted submission and the per-tenant
// stats ledgers on one shared pool.
func TestSubmitToAndTenantStats(t *testing.T) {
	svc := serveTenants(t, deeprecsys.ServeOptions{})
	if got := svc.Tenants(); len(got) != 2 || got[0] != "ranking" || got[1] != "ads" {
		t.Fatalf("Tenants() = %v", got)
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		reply, err := svc.SubmitTo(ctx, "ranking", 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Tenant != "ranking" || len(reply.Recs) != 3 {
			t.Fatalf("reply = %+v", reply)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.SubmitTo(ctx, "ads", 30, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.SubmitTo(ctx, "nope", 10, 0); err == nil {
		t.Error("unknown tenant accepted")
	}

	st := svc.Stats()
	if len(st.Tenants) != 2 {
		t.Fatalf("Stats().Tenants = %+v", st.Tenants)
	}
	rk, ads := st.Tenants[0], st.Tenants[1]
	if rk.Tenant != "ranking" || rk.Model != "NCF" || rk.Share != 3 ||
		rk.SLA != 50*time.Millisecond || rk.BatchSize != 16 {
		t.Errorf("ranking stats = %+v", rk)
	}
	if ads.Tenant != "ads" || ads.Model != "DLRM-RMC1" || ads.SLA != 100*time.Millisecond ||
		ads.BatchSize != 64 {
		t.Errorf("ads stats = %+v", ads)
	}
	if rk.Submitted != 5 || rk.Completed != 5 || ads.Submitted != 2 || ads.Completed != 2 {
		t.Errorf("ledgers: ranking %d/%d, ads %d/%d", rk.Submitted, rk.Completed, ads.Submitted, ads.Completed)
	}
	if rk.WindowLen != 5 || rk.P95 <= 0 {
		t.Errorf("ranking window %d p95 %v", rk.WindowLen, rk.P95)
	}
	// Aggregate counters fold the tenant ledgers.
	if st.Submitted != 7 || st.Completed != 7 {
		t.Errorf("aggregate %d/%d, want 7/7", st.Submitted, st.Completed)
	}
}

// TestServiceBatchSizeIsTheFirstTenants pins what the service-level knob
// reads on a multi-tenant Service: the first tenant's batch size, on every
// replica. The other tenants report their own.
func TestServiceBatchSizeIsTheFirstTenants(t *testing.T) {
	st := serveTenants(t, deeprecsys.ServeOptions{Replicas: 2}).Stats()
	if st.BatchSize != 16 {
		t.Errorf("service batch %d, want the first tenant's 16", st.BatchSize)
	}
	if rk, ads := st.Tenants[0].BatchSize, st.Tenants[1].BatchSize; rk != 16 || ads != 64 {
		t.Errorf("ranking at %d, ads at %d; want 16 and 64", rk, ads)
	}
	if len(st.PerReplica) != 2 {
		t.Fatalf("%d replicas, want 2", len(st.PerReplica))
	}
	for _, r := range st.PerReplica {
		if r.BatchSize != 16 {
			t.Errorf("replica %d: first tenant's batch %d, want 16", r.ID, r.BatchSize)
		}
	}
}

// TestSingleTenantDefaultIdentity: a one-tenant service at defaults is the
// single-model service under another spelling — same recommendations, same
// ledger, and the same one tenant (name, model, table geometry, ledger) on
// every reply and in Stats — on classic tables and on a store-backed fleet
// that is grown after Serve, where every replica's cache counters must be
// its own in both forms.
func TestSingleTenantDefaultIdentity(t *testing.T) {
	const storeSpec, rows = "synth,cache=lru:500", 20000
	cases := []struct {
		name    string
		sysOpts []deeprecsys.Option
		tenant  deeprecsys.TenantSpec // the one-TenantSpec form of the same service
		grow    bool                  // Replicas: 2, then AddReplica
	}{
		{name: "classic", tenant: deeprecsys.TenantSpec{Model: "NCF"}},
		{name: "store-backed fleet",
			sysOpts: []deeprecsys.Option{deeprecsys.WithTableScale(rows, 0), deeprecsys.WithEmbeddingStore(storeSpec)},
			tenant:  deeprecsys.TenantSpec{Model: "NCF", Store: storeSpec, Rows: rows},
			grow:    true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(sysOpts []deeprecsys.Option, tenants []deeprecsys.TenantSpec) ([]deeprecsys.Recommendation, []string, deeprecsys.ServiceStats) {
				sys, err := deeprecsys.NewSystem("NCF", "skylake", append(sysOpts, deeprecsys.WithSeed(7))...)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				opts := deeprecsys.ServeOptions{Workers: 1, BatchSize: 16, Tenants: tenants}
				if tc.grow {
					opts.Replicas = 2
				}
				svc, err := sys.Serve(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				if tc.grow {
					if _, err := svc.AddReplica(false); err != nil {
						t.Fatal(err)
					}
				}
				var recs []deeprecsys.Recommendation
				var served []string
				for i := 0; i < 6; i++ {
					reply, err := svc.Submit(context.Background(), 25+i, 4)
					if err != nil {
						t.Fatal(err)
					}
					recs = append(recs, reply.Recs...)
					served = append(served, reply.Tenant)
				}
				return recs, served, svc.Stats()
			}

			classicRecs, classicServed, classicStats := serve(tc.sysOpts, nil)
			tenantRecs, tenantServed, tenantStats := serve(nil, []deeprecsys.TenantSpec{tc.tenant})

			if len(classicRecs) != len(tenantRecs) {
				t.Fatalf("rec counts differ: %d vs %d", len(classicRecs), len(tenantRecs))
			}
			for i := range classicRecs {
				if classicRecs[i] != tenantRecs[i] {
					t.Fatalf("rec %d differs: classic %+v, tenant %+v", i, classicRecs[i], tenantRecs[i])
				}
			}
			if classicStats.Ledger != tenantStats.Ledger || classicStats.BatchSize != tenantStats.BatchSize {
				t.Errorf("counters diverge:\nclassic %+v\ntenant  %+v", classicStats, tenantStats)
			}
			if !slices.Equal(classicServed, tenantServed) || classicServed[0] != "NCF" {
				t.Errorf("Reply.Tenant: single-model %q, one-tenant %q, want NCF on every reply", classicServed, tenantServed)
			}
			if len(classicStats.Tenants) != 1 || len(tenantStats.Tenants) != 1 {
				t.Fatalf("Stats().Tenants: single-model %d entries, one-tenant %d, want 1 each", len(classicStats.Tenants), len(tenantStats.Tenants))
			}
			ct, tt := classicStats.Tenants[0], tenantStats.Tenants[0]
			if ct.Tenant != "NCF" || ct.Tenant != tt.Tenant || ct.Model != tt.Model || ct.TableRows != tt.TableRows || ct.Ledger != tt.Ledger {
				t.Errorf("tenant entries diverge:\nsingle-model %s/%s %d rows %+v\none-tenant   %s/%s %d rows %+v",
					ct.Tenant, ct.Model, ct.TableRows, ct.Ledger, tt.Tenant, tt.Model, tt.TableRows, tt.Ledger)
			}
			if !tc.grow {
				return
			}
			// Round-robin over three replicas hands each a different number of
			// items (53, 55, 57), so a replica reporting its own lookups reads
			// the same lookups-per-item as every other; replicas sharing an
			// instance would each report the sum.
			for name, st := range map[string]deeprecsys.ServiceStats{"single-model": classicStats, "one-tenant": tenantStats} {
				if len(st.PerReplica) != 3 || !st.EmbStore || st.EmbHits+st.EmbMisses == 0 {
					t.Fatalf("%s: %d replicas, EmbStore=%v, %d lookups", name, len(st.PerReplica), st.EmbStore, st.EmbHits+st.EmbMisses)
				}
				perItem := (st.EmbHits + st.EmbMisses) / st.WorkItems
				for i, r := range st.PerReplica {
					if got := r.EmbHits + r.EmbMisses; got == 0 || got != perItem*r.WorkItems {
						t.Errorf("%s: replica %d counted %d lookups for %d items, want %d per item",
							name, r.ID, got, r.WorkItems, perItem)
					}
					if other := classicStats.PerReplica[i]; r.Ledger != other.Ledger {
						t.Errorf("%s: replica %d ledger %+v != single-model form's %+v", name, r.ID, r.Ledger, other.Ledger)
					}
				}
			}
		})
	}
}

// TestTenantABSplit pins the live A/B use case: two tenants bind the same
// model architecture at different seeds (candidate weight versions) behind
// a weighted split, and each version keeps its own ledger and produces its
// own rankings.
func TestTenantABSplit(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Workers: 2,
		Tenants: []deeprecsys.TenantSpec{
			{Model: "NCF", Name: "v1", Seed: 1, Share: 1},
			{Model: "NCF", Name: "v2", Seed: 2, Share: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	r1, err := svc.SubmitTo(ctx, "v1", 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.SubmitTo(ctx, "v2", 50, 5)
	if err != nil {
		t.Fatal(err)
	}
	same := len(r1.Recs) == len(r2.Recs)
	if same {
		for i := range r1.Recs {
			if r1.Recs[i] != r2.Recs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different weight versions ranked identically")
	}

	for i := 0; i < 18; i++ {
		if _, err := svc.Submit(ctx, 20, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Tenants[0].Submitted != 10 || st.Tenants[1].Submitted != 10 {
		t.Errorf("1:1 A/B split = %d/%d, want 10/10",
			st.Tenants[0].Submitted, st.Tenants[1].Submitted)
	}
}

// TestTenantValidation pins the Serve-time rejections.
func TestTenantValidation(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	bad := []deeprecsys.ServeOptions{
		// Unknown model.
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NOPE"}}},
		// Duplicate tenant names (both default to the model name).
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF"}, {Model: "NCF"}}},
		// MaxOutstanding must not be negative (at one replica it is accepted:
		// see TestServeOneReplicaIsAFleet).
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF", MaxOutstanding: -1}}},
		// ShardTables shards one model's tables; incompatible with Tenants.
		{Workers: 1, ShardTables: true, Tenants: []deeprecsys.TenantSpec{{Model: "NCF"}}},
		// Bad nested specs.
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF", Admission: "bogus"}}},
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF", Access: "bogus"}}},
		// Negative share.
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF", Share: -2}}},
		// Non-finite shares, and finite ones whose total overflows: either
		// stops the Share-weighted split from splitting by weight.
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF"}, {Model: "NCF", Name: "b", Share: math.Inf(1)}}},
		{Workers: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF", Share: 1e308}, {Model: "NCF", Name: "b", Share: 1e308}}},
	}
	for i, opts := range bad {
		if svc, err := sys.Serve(opts); err == nil {
			svc.Close()
			t.Errorf("bad tenant options %d accepted", i)
		}
	}

	// A system-level embedding store cannot host tenants (stores bind
	// per-tenant via TenantSpec.Store).
	storeSys, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake",
		deeprecsys.WithEmbeddingStore("synth"))
	if err != nil {
		t.Fatal(err)
	}
	if svc, err := storeSys.Serve(deeprecsys.ServeOptions{
		Workers: 1,
		Tenants: []deeprecsys.TenantSpec{{Model: "NCF"}},
	}); err == nil {
		svc.Close()
		t.Error("system store + Tenants accepted")
	}
}

// TestTenantFleet pins multi-tenant serving on a shared replica fleet:
// per-tenant fleet-merged stats, shape vectors, and the per-tenant
// outstanding cap wired through ServeOptions.
func TestTenantFleet(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Workers:       1,
		Replicas:      2,
		RoutingPolicy: "shape-spread",
		Tenants: []deeprecsys.TenantSpec{
			{Model: "WnD", Name: "fc", Share: 1, MaxOutstanding: 64},
			{Model: "DLRM-RMC1", Name: "emb", Share: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := svc.Submit(ctx, 30, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if len(st.Tenants) != 2 || len(st.PerReplica) != 2 {
		t.Fatalf("tenants %d, replicas %d", len(st.Tenants), len(st.PerReplica))
	}
	fc, emb := st.Tenants[0], st.Tenants[1]
	if fc.Submitted != 5 || emb.Submitted != 5 {
		t.Errorf("1:1 fleet split = %d/%d", fc.Submitted, emb.Submitted)
	}
	if fc.Cap != 64 || emb.Cap != 0 {
		t.Errorf("caps = %d/%d, want 64/0", fc.Cap, emb.Cap)
	}
	// WnD is FC-dominated, DLRM-RMC1 embedding-dominated: the normalized
	// shape vectors must reflect that and sum to ~1.
	if fc.Shape[0] < fc.Shape[1] {
		t.Errorf("WnD shape %v not FC-dominated", fc.Shape)
	}
	if emb.Shape[1] < emb.Shape[0] {
		t.Errorf("DLRM-RMC1 shape %v not embedding-dominated", emb.Shape)
	}
}
