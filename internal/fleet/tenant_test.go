package fleet

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// tenantModels builds one FC-heavy and one embedding-heavy model pair.
// Replicas may share the pair (only tenants within one replica need
// distinct instances).
func tenantModels(t testing.TB) (*model.Model, *model.Model) {
	t.Helper()
	build := func(name string, seed int64) *model.Model {
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
	return build("NCF", 1), build("DLRM-RMC1", 2)
}

// tenantConfig is one replica config hosting both tenants.
func tenantConfig(ncf, rmc *model.Model, seed int64) live.Config {
	return live.Config{
		Workers: 1,
		Seed:    seed,
		Tenants: []live.TenantConfig{
			{Name: "ncf", Model: ncf, BatchSize: 16, SLA: 50 * time.Millisecond},
			{Name: "rmc1", Model: rmc, BatchSize: 32, SLA: 100 * time.Millisecond},
		},
	}
}

// TestTenantPartitionPlacement pins the share-proportional partition: on a
// 4-replica fleet with equal shares, tenant 0 routes only to replicas
// {0, 1} and tenant 1 only to {2, 3}.
func TestTenantPartitionPlacement(t *testing.T) {
	ncf, rmc := tenantModels(t)
	cfgs := make([]live.Config, 4)
	for i := range cfgs {
		cfgs[i] = tenantConfig(ncf, rmc, int64(1+i))
	}
	f := newFleet(t, cfgs, NewTenantPartition())

	ctx := context.Background()
	for i := 0; i < 8; i++ {
		tenant := i % 2
		_, id, err := f.Submit(ctx, live.Query{Candidates: 16, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		if tenant == 0 && id > 1 {
			t.Errorf("tenant 0 routed to replica %d outside its partition", id)
		}
		if tenant == 1 && id < 2 {
			t.Errorf("tenant 1 routed to replica %d outside its partition", id)
		}
	}
	st := f.Stats()
	if len(st.Tenants) != 2 || st.Tenants[0].Name != "ncf" || st.Tenants[1].Name != "rmc1" {
		t.Fatalf("fleet tenant snapshot %+v", st.Tenants)
	}
	if st.Tenants[0].Completed != 4 || st.Tenants[1].Completed != 4 {
		t.Errorf("per-tenant completed %d/%d, want 4/4",
			st.Tenants[0].Completed, st.Tenants[1].Completed)
	}
}

// TestShapeSpreadPicks unit-tests the interference-aware policy on
// synthetic candidates: a tenant's query goes where work of its own
// resource shape is scarcest, so complementary shapes co-locate and
// identical shapes spread apart.
func TestShapeSpreadPicks(t *testing.T) {
	p := NewShapeSpread()
	p.BindTenants([]TenantInfo{
		{Name: "fc", Shape: [2]float64{1, 0}},
		{Name: "emb", Shape: [2]float64{0, 1}},
	})

	// Replica 0 is loaded with FC-shaped work, replica 1 with
	// embedding-shaped work.
	candidates := []Candidate{
		{ID: 0, Outstanding: 4, TenantOutstanding: []int{4, 0}},
		{ID: 1, Outstanding: 4, TenantOutstanding: []int{0, 4}},
	}
	if got := p.PickTenant(0, 16, candidates); got != 1 {
		t.Errorf("FC tenant picked replica %d, want 1 (away from FC load)", got)
	}
	if got := p.PickTenant(1, 16, candidates); got != 0 {
		t.Errorf("emb tenant picked replica %d, want 0 (away from emb load)", got)
	}

	// All-idle fleet: ties break toward the lower ID.
	idle := []Candidate{
		{ID: 0, TenantOutstanding: []int{0, 0}},
		{ID: 1, TenantOutstanding: []int{0, 0}},
	}
	if got := p.PickTenant(0, 16, idle); got != 0 {
		t.Errorf("idle tie picked %d, want 0", got)
	}
	// Out-of-range tenant falls back to least-loaded.
	if got := p.PickTenant(9, 16, candidates); got < 0 || got > 1 {
		t.Errorf("fallback pick %d out of range", got)
	}
}

// TestFleetTenantCap pins the per-tenant fleet-wide outstanding cap: the
// capped tenant's overflow is refused at the front door (CapShed) while
// the other tenant is untouched, and every capped-tenant query is
// accounted exactly once as completed or cap-shed.
func TestFleetTenantCap(t *testing.T) {
	ncf, rmc := tenantModels(t)
	cfgs := []live.Config{tenantConfig(ncf, rmc, 1), tenantConfig(ncf, rmc, 2)}
	f := newFleet(t, cfgs, NewShapeSpread())

	if err := f.SetTenantCap(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetTenantCap(2, 1); err == nil {
		t.Error("cap accepted for unknown tenant")
	}
	if err := f.SetTenantCap(0, -1); err == nil {
		t.Error("negative cap accepted")
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	var completed, shed atomic.Uint64
	const burst = 32
	for i := 0; i < burst; i++ {
		tenant := i % 2
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			_, _, err := f.Submit(ctx, live.Query{Candidates: 400, Tenant: tenant})
			switch {
			case err == nil && tenant == 0:
				completed.Add(1)
			case errors.Is(err, live.ErrOverloaded) && tenant == 0:
				shed.Add(1)
			case err != nil:
				t.Errorf("tenant %d: %v", tenant, err)
			}
		}(tenant)
	}
	wg.Wait()

	st := f.Stats()
	t0 := st.Tenants[0]
	if t0.Cap != 1 {
		t.Errorf("reported cap %d, want 1", t0.Cap)
	}
	if t0.CapShed != shed.Load() {
		t.Errorf("CapShed %d, submitters saw %d", t0.CapShed, shed.Load())
	}
	if completed.Load()+shed.Load() != burst/2 {
		t.Errorf("tenant 0 accounted %d+%d of %d", completed.Load(), shed.Load(), burst/2)
	}
	if t0.Completed != completed.Load() {
		t.Errorf("tenant 0 Completed %d, submitters saw %d", t0.Completed, completed.Load())
	}
	if st.Tenants[1].CapShed != 0 || st.Tenants[1].Completed != burst/2 {
		t.Errorf("tenant 1 disturbed by tenant 0's cap: %+v", st.Tenants[1])
	}
}

// TestMixedTenantFleetSoak is the mixed-tenant churn soak (run it with
// -race): concurrent submitters drive both tenants with mixed sizes, topN
// requests, and short-deadline contexts while the fleet gains and loses a
// replica mid-flight. Afterwards each tenant's ledger must conserve
// independently — Submitted == Completed + Cancelled + Shed + ShedDeadline
// + Failed + Abandoned — and the fleet's merged totals must equal the sum
// over tenants, across the membership churn.
func TestMixedTenantFleetSoak(t *testing.T) {
	ncf, rmc := tenantModels(t)
	cfgs := []live.Config{
		tenantConfig(ncf, rmc, 1),
		tenantConfig(ncf, rmc, 2),
		tenantConfig(ncf, rmc, 3),
	}
	f := newFleet(t, cfgs, NewShapeSpread())

	const submitters = 6
	const perSubmitter = 12
	var attempts, oks [2]atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perSubmitter; i++ {
				tenant := (g + i) % 2
				q := live.Query{Candidates: 1 + rng.Intn(300), Tenant: tenant}
				if i%3 == 0 {
					q.TopN = 3
				}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if i%7 == 5 {
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				attempts[tenant].Add(1)
				_, _, err := f.Submit(ctx, q)
				cancel()
				if err == nil {
					oks[tenant].Add(1)
				} else if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("tenant %d: %v", tenant, err)
				}
			}
		}(g)
	}

	// Membership churn while the submitters run: grow by one replica,
	// then drain and remove an original member.
	stopPolling := pollLedgerIdentity(t, f)
	time.Sleep(2 * time.Millisecond)
	if _, err := f.Add(tenantConfig(ncf, rmc, 4)); err != nil {
		t.Errorf("mid-soak Add: %v", err)
	}
	if err := f.Drain(1); err != nil {
		t.Errorf("mid-soak Drain: %v", err)
	}
	if err := f.Remove(1); err != nil {
		t.Errorf("mid-soak Remove: %v", err)
	}
	wg.Wait()
	stopPolling()

	st := f.Stats()
	if len(st.Tenants) != 2 {
		t.Fatalf("tenant snapshots: %d", len(st.Tenants))
	}
	var sum live.Stats
	for i, ts := range st.Tenants {
		if !ts.Conserved() {
			t.Errorf("tenant %s leaks queries: Submitted %d != accounted (%+v)",
				ts.Name, ts.Submitted, ts.Stats)
		}
		if ts.Submitted != attempts[i].Load() {
			t.Errorf("tenant %s Submitted %d, submitters sent %d (churn lost counters)",
				ts.Name, ts.Submitted, attempts[i].Load())
		}
		if ts.Completed != oks[i].Load() {
			t.Errorf("tenant %s Completed %d, submitters saw %d", ts.Name, ts.Completed, oks[i].Load())
		}
		if ts.Outstanding != 0 {
			t.Errorf("tenant %s still outstanding %d after quiesce", ts.Name, ts.Outstanding)
		}
		sum.Submitted += ts.Submitted
		sum.Completed += ts.Completed
		sum.Cancelled += ts.Cancelled
		sum.Shed += ts.Shed
		sum.ShedDeadline += ts.ShedDeadline
		sum.Failed += ts.Failed
		sum.Abandoned += ts.Abandoned
	}
	// The fleet's merged totals are exactly the tenant sums — no query
	// double-counted or dropped by the per-tenant split, membership churn
	// included.
	if st.Submitted != sum.Submitted || st.Completed != sum.Completed ||
		st.Cancelled != sum.Cancelled || st.Shed != sum.Shed ||
		st.ShedDeadline != sum.ShedDeadline || st.Failed != sum.Failed ||
		st.Abandoned != sum.Abandoned {
		t.Errorf("fleet totals != tenant sums:\nfleet  %+v\ntenants %+v", st, sum)
	}
	if st.FrontSubmitted != sum.Submitted {
		t.Errorf("front door saw %d, replicas recorded %d", st.FrontSubmitted, sum.Submitted)
	}
}
