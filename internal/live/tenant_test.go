package live

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
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
	}
	for i, cfg := range bad {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("bad tenant config %d accepted", i)
		}
	}
	// Every bad per-tenant value is refused in the tenant, by name.
	for _, b := range badPerTenant {
		cfg := Config{Tenants: []TenantConfig{{Name: "a", Model: ncf}}}
		b.set(&cfg.Tenants[0])
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("%s accepted", b.name)
		} else if !strings.Contains(err.Error(), "tenant 0 (a)") {
			t.Errorf("%s: error does not name the tenant: %v", b.name, err)
		}
	}
	// AutoTune switches on every tenant's controller, so every tenant needs
	// an SLA: the one without is refused by name.
	autoTune := Config{AutoTune: true, Tenants: []TenantConfig{
		{Name: "a", Model: ncf, SLA: time.Second},
		{Name: "b", Model: namedModel(t, "NCF", 2)},
	}}
	if s, err := New(autoTune); err == nil {
		s.Close()
		t.Error("AutoTune with a tenant lacking an SLA accepted")
	} else if !strings.Contains(err.Error(), "tenant 1 (b)") {
		t.Errorf("AutoTune without an SLA: error does not name the tenant: %v", err)
	}
	// The one-tenant shorthand beside Tenants is refused, naming the field.
	for field, cfg := range map[string]Config{
		"Model":     {Model: namedModel(t, "NCF", 2)},
		"BatchSize": {BatchSize: 16},
		"SLA":       {SLA: time.Second},
	} {
		cfg.Tenants = []TenantConfig{{Name: "a", Model: ncf, BatchSize: 16}}
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("Config.%s beside Tenants accepted", field)
		} else if !strings.Contains(err.Error(), "Config."+field) {
			t.Errorf("Config.%s beside Tenants: error does not name the field: %v", field, err)
		}
	}
}

// TestTenantKnobsIndependent pins that each tenant executes at its own
// batch size.
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
}

// TestTenantLedgersIndependent pins per-tenant counter conservation on one
// shared pool: each tenant's ledger accounts for exactly its own queries.
func TestTenantLedgersIndependent(t *testing.T) {
	s := newService(t, twoTenantConfig(t))
	ctx := context.Background()
	const n0, n1 = 7, 11
	both := stats.NewWindow(n0 + n1) // every reply of either tenant
	for i := 0; i < n0+n1; i++ {
		tenant := 0
		if i >= n0 {
			tenant = 1
		}
		reply, err := s.Submit(ctx, Query{Candidates: 20, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		both.Add(reply.Latency.Seconds())
	}
	// One cancelled query on tenant 0.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Submit(cancelled, Query{Candidates: 20, Tenant: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v", err)
	}

	snap := s.Snapshot()
	st0, st1 := snap.Tenants[0].Stats, snap.Tenants[1].Stats
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
	if want := time.Duration(both.Percentile(95) * float64(time.Second)); agg.P95 != want {
		t.Errorf("aggregate p95 %v != p95 %v of one window fed both tenants' replies", agg.P95, want)
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

	snap := s.Snapshot()
	st0, st1 := snap.Tenants[0].Stats, snap.Tenants[1].Stats
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
}
