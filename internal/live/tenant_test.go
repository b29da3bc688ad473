package live

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// namedModel builds one zoo model on its own seed for multi-tenant tests
// (tenants must not share a *model.Model instance).
func namedModel(t testing.TB, name string, seed int64) *model.Model {
	t.Helper()
	cfg, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// twoTenantConfig is a shared pool serving an FC-heavy and an
// embedding-heavy tenant with distinct knobs.
func twoTenantConfig(t testing.TB) Config {
	t.Helper()
	return Config{
		Workers: 2,
		Tenants: []TenantConfig{
			{Name: "ncf", Model: namedModel(t, "NCF", 1), BatchSize: 16, SLA: 5 * time.Millisecond},
			{Name: "rmc1", Model: namedModel(t, "DLRM-RMC1", 2), BatchSize: 64, SLA: 100 * time.Millisecond, Share: 3},
		},
	}
}

func TestTenantConfigValidation(t *testing.T) {
	ncf := namedModel(t, "NCF", 1)
	bad := []Config{
		// Unnamed tenant.
		{Tenants: []TenantConfig{{Model: ncf}}},
		// Duplicate names.
		{Tenants: []TenantConfig{
			{Name: "a", Model: ncf},
			{Name: "a", Model: namedModel(t, "NCF", 2)},
		}},
		// Shared model instance.
		{Tenants: []TenantConfig{
			{Name: "a", Model: ncf},
			{Name: "b", Model: ncf},
		}},
		// Tenant without a model.
		{Tenants: []TenantConfig{{Name: "a"}}},
		// Per-tenant GPU threshold without an accelerator.
		{Tenants: []TenantConfig{{Name: "a", Model: ncf, GPUThreshold: 100}}},
		// Negative share.
		{Tenants: []TenantConfig{{Name: "a", Model: ncf, Share: -1}}},
	}
	for i, cfg := range bad {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("bad tenant config %d accepted", i)
		}
	}
	// Every bad per-tenant value, on a named tenant and as the Config-level
	// default that tenant inherits: refused in the tenant, by name.
	for _, b := range badPerTenant {
		onTenant := Config{Tenants: []TenantConfig{{Name: "a", Model: ncf}}}
		b.onTenant(&onTenant.Tenants[0])
		positions := map[string]Config{"on the tenant": onTenant}
		if b.onConfig != nil {
			inherited := Config{Tenants: []TenantConfig{{Name: "a", Model: ncf}}}
			b.onConfig(&inherited)
			positions["inherited"] = inherited
		}
		for pos, cfg := range positions {
			if s, err := New(cfg); err == nil {
				s.Close()
				t.Errorf("%s %s accepted", b.name, pos)
			} else if !strings.Contains(err.Error(), "tenant 0 (a)") {
				t.Errorf("%s %s: error does not name the tenant: %v", b.name, pos, err)
			}
		}
	}
	// A Config-level default nobody inherits is not read.
	s, err := New(Config{BatchSize: -5, Tenants: []TenantConfig{{Name: "a", Model: ncf, BatchSize: 16}}})
	if err != nil {
		t.Fatalf("overridden Config-level default was validated: %v", err)
	}
	s.Close()
}

// TestTenantKnobsIndependent pins that each tenant executes at its own
// batch size and that manual per-tenant retunes touch only that tenant.
func TestTenantKnobsIndependent(t *testing.T) {
	s := newService(t, twoTenantConfig(t))
	ctx := context.Background()

	r0, err := s.Submit(ctx, Query{Candidates: 40, Tenant: 0})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s.Submit(ctx, Query{Candidates: 40, Tenant: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r0.BatchSize != 16 || r1.BatchSize != 64 {
		t.Errorf("batch sizes %d/%d, want 16/64", r0.BatchSize, r1.BatchSize)
	}
	if r0.Tenant != 0 || r1.Tenant != 1 {
		t.Errorf("reply tenants %d/%d, want 0/1", r0.Tenant, r1.Tenant)
	}

	if err := s.SetTenantBatchSize(1, 32); err != nil {
		t.Fatal(err)
	}
	st0, st1 := s.TenantStats(0), s.TenantStats(1)
	if st0.BatchSize != 16 || st1.BatchSize != 32 {
		t.Errorf("after SetTenantBatchSize(1, 32): %d/%d, want 16/32", st0.BatchSize, st1.BatchSize)
	}
	// The tenant-0 compatibility surface: BatchSize()/SetBatchSize walk
	// tenant 0 only.
	if err := s.SetBatchSize(8); err != nil {
		t.Fatal(err)
	}
	if got := s.TenantStats(0).BatchSize; got != 8 {
		t.Errorf("tenant 0 batch %d after SetBatchSize(8)", got)
	}
	if got := s.TenantStats(1).BatchSize; got != 32 {
		t.Errorf("tenant 1 batch %d mutated by tenant-0 SetBatchSize", got)
	}
}

// TestTenantLedgersIndependent pins per-tenant counter conservation on one
// shared pool: each tenant's ledger accounts for exactly its own queries.
func TestTenantLedgersIndependent(t *testing.T) {
	s := newService(t, twoTenantConfig(t))
	ctx := context.Background()
	const n0, n1 = 7, 11
	for i := 0; i < n0; i++ {
		if _, err := s.Submit(ctx, Query{Candidates: 20, Tenant: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n1; i++ {
		if _, err := s.Submit(ctx, Query{Candidates: 20, Tenant: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// One cancelled query on tenant 0.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Submit(cancelled, Query{Candidates: 20, Tenant: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}

	st0, st1 := s.TenantStats(0), s.TenantStats(1)
	if st0.Submitted != n0+1 || st0.Completed != n0 || st0.Cancelled != 1 {
		t.Errorf("tenant 0 ledger %d/%d/%d, want %d/%d/1", st0.Submitted, st0.Completed, st0.Cancelled, n0+1, n0)
	}
	if st1.Submitted != n1 || st1.Completed != n1 || st1.Cancelled != 0 {
		t.Errorf("tenant 1 ledger %d/%d/%d, want %d/%d/0", st1.Submitted, st1.Completed, st1.Cancelled, n1, n1)
	}
	if st0.WindowLen != n0 || st1.WindowLen != n1 {
		t.Errorf("window lens %d/%d, want %d/%d", st0.WindowLen, st1.WindowLen, n0, n1)
	}
	if st0.SLA != 5*time.Millisecond || st1.SLA != 100*time.Millisecond {
		t.Errorf("SLAs %v/%v", st0.SLA, st1.SLA)
	}

	// The aggregate sums the ledgers.
	agg := s.Stats()
	if agg.Submitted != st0.Submitted+st1.Submitted {
		t.Errorf("aggregate Submitted %d != %d+%d", agg.Submitted, st0.Submitted, st1.Submitted)
	}
	if agg.Completed != st0.Completed+st1.Completed {
		t.Errorf("aggregate Completed %d != %d+%d", agg.Completed, st0.Completed, st1.Completed)
	}
	if agg.WindowLen != st0.WindowLen+st1.WindowLen {
		t.Errorf("aggregate window %d != %d+%d", agg.WindowLen, st0.WindowLen, st1.WindowLen)
	}
}

// TestTenantAdmissionIsolation pins the per-tenant outstanding-work cap: a
// saturated tenant sheds on its own gate while its neighbor keeps serving.
func TestTenantAdmissionIsolation(t *testing.T) {
	cfg := twoTenantConfig(t)
	// Tenant 0: reject beyond one in-flight query, no queueing.
	cfg.Tenants[0].Admission = AdmissionConfig{Policy: AdmitReject, Concurrency: 1, Depth: 1}
	s := newService(t, cfg)
	ctx := context.Background()

	// Saturate tenant 0 until at least one shed is observed; tenant 1
	// submits concurrently and must never be shed.
	var wg sync.WaitGroup
	const burst = 24
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		tenant := i % 2
		go func(tenant int) {
			defer wg.Done()
			_, err := s.Submit(ctx, Query{Candidates: 200, Tenant: tenant})
			if err != nil && tenant == 1 {
				t.Errorf("tenant 1 submit failed: %v", err)
			}
			if err != nil && !errors.Is(err, ErrOverloaded) {
				t.Errorf("tenant %d unexpected error: %v", tenant, err)
			}
		}(tenant)
	}
	wg.Wait()

	st0, st1 := s.TenantStats(0), s.TenantStats(1)
	if st1.Shed != 0 {
		t.Errorf("tenant 1 shed %d queries by tenant 0's gate", st1.Shed)
	}
	if got := st0.Completed + st0.Shed; got != burst/2 {
		t.Errorf("tenant 0 accounted %d of %d", got, burst/2)
	}
	if !st0.Conserved() {
		t.Errorf("tenant 0 conservation violated: %+v", st0)
	}
}

// TestTenantQueryValidation pins Submit's tenant-index bounds check.
func TestTenantQueryValidation(t *testing.T) {
	s := newService(t, twoTenantConfig(t))
	for _, bad := range []int{-1, 2, 7} {
		if _, err := s.Submit(context.Background(), Query{Candidates: 8, Tenant: bad}); err == nil {
			t.Errorf("tenant %d accepted", bad)
		}
	}
	if i, ok := s.TenantIndex("rmc1"); !ok || i != 1 {
		t.Errorf("TenantIndex(rmc1) = %d, %v", i, ok)
	}
	if _, ok := s.TenantIndex("nope"); ok {
		t.Error("TenantIndex(nope) resolved")
	}
	if n := s.TenantCount(); n != 2 {
		t.Errorf("TenantCount %d", n)
	}
}
