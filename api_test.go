package deeprecsys_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

func TestParseWorkload(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"production", "production@poisson"},
		{"production@uniform", "production@uniform"},
		{"fixed:100", "fixed(100)@poisson"},
		{"lognormal:4.0,0.9@poisson", "lognormal(4.00,0.90)@poisson"},
	}
	for _, c := range cases {
		w, err := deeprecsys.ParseWorkload(c.spec)
		if err != nil {
			t.Fatalf("ParseWorkload(%q): %v", c.spec, err)
		}
		if w.Name() != c.want {
			t.Errorf("ParseWorkload(%q).Name() = %q, want %q", c.spec, w.Name(), c.want)
		}
		if w.IsTrace() {
			t.Errorf("ParseWorkload(%q) claims to be a trace", c.spec)
		}
	}
	for _, spec := range []string{"", "zipf", "fixed:0", "production@burst", "fixed:10@"} {
		if _, err := deeprecsys.ParseWorkload(spec); err == nil {
			t.Errorf("ParseWorkload(%q) accepted", spec)
		}
	}
}

func TestDefaultWorkloadIsProduction(t *testing.T) {
	if got := deeprecsys.DefaultWorkload().Name(); got != "production@poisson" {
		t.Errorf("DefaultWorkload = %q", got)
	}
	var zero deeprecsys.Workload
	if got := zero.Name(); got != "production@poisson" {
		t.Errorf("zero Workload = %q", got)
	}
}

func TestTraceWorkload(t *testing.T) {
	csv := "arrival_sec,size\n0.001,50\n0.002,200\n0.003,50\n"
	w, err := deeprecsys.TraceWorkload(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if !w.IsTrace() || w.TraceLen() != 3 {
		t.Errorf("trace workload = %q, len %d", w.Name(), w.TraceLen())
	}
	if !strings.HasPrefix(w.Name(), "empirical") {
		t.Errorf("trace workload name = %q", w.Name())
	}
	if _, err := deeprecsys.TraceWorkload(strings.NewReader("bogus")); err == nil {
		t.Error("bogus trace accepted")
	}
}

// TestWithWorkloadChangesCapacity pins that the workload option actually
// reaches the capacity search: a fixed tiny query size must sustain far
// more load than the heavy-tailed production distribution.
func TestWithWorkloadChangesCapacity(t *testing.T) {
	light, err := deeprecsys.ParseWorkload("fixed:10")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(opts ...deeprecsys.Option) deeprecsys.Decision {
		opts = append(opts, deeprecsys.WithSearchFidelity(400, 0.1))
		sys, err := deeprecsys.NewSystem("NCF", "skylake", opts...)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sys.Capacity(16, 0, sys.SLA())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	prod := mk()
	fixed := mk(deeprecsys.WithWorkload(light))
	if fixed.QPS <= prod.QPS {
		t.Errorf("fixed:10 capacity %.0f <= production %.0f", fixed.QPS, prod.QPS)
	}
}

// TestUniformArrivalsReachSearch pins that a workload's arrival process is
// honored end to end: for the heavy-tailed production distribution at a
// tail-bound operating point the measured p95 — and hence the searched
// capacity — must differ between Poisson and uniform arrivals (at 800 QPS
// the two differ by >20% at the serving layer, far beyond the 2% search
// tolerance).
func TestUniformArrivalsReachSearch(t *testing.T) {
	mk := func(spec string) deeprecsys.Decision {
		w, err := deeprecsys.ParseWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake",
			deeprecsys.WithWorkload(w), deeprecsys.WithSearchFidelity(600, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		d, err := sys.Capacity(256, 0, sys.SLA())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	poisson := mk("production@poisson")
	uniform := mk("production@uniform")
	if poisson.QPS == uniform.QPS && poisson.P95 == uniform.P95 {
		t.Errorf("arrival process ignored by the search: both give %.0f QPS / p95 %v",
			poisson.QPS, poisson.P95)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := deeprecsys.NewSystem("NCF", "skylake", deeprecsys.WithSearchFidelity(0, 0.05)); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := deeprecsys.NewSystem("NCF", "skylake", deeprecsys.WithSearchFidelity(100, 0)); err == nil {
		t.Error("zero relTol accepted")
	}
	if _, err := deeprecsys.NewSystem("NCF", "skylake", deeprecsys.WithSearchFidelity(100, -1)); err == nil {
		t.Error("negative relTol accepted")
	}
	if _, err := deeprecsys.NewSystem("NCF", "skylake", deeprecsys.WithEngine(deeprecsys.EngineKind(99))); err == nil {
		t.Error("unknown engine kind accepted")
	}
}

func TestRealExecutionEngineCapability(t *testing.T) {
	// RealExecution + GPU is unsatisfiable and must fail at construction.
	if _, err := deeprecsys.NewSystem("NCF", "skylake",
		deeprecsys.WithEngine(deeprecsys.RealExecution), deeprecsys.WithGPU()); err == nil {
		t.Error("RealExecution with GPU accepted")
	}
	// A fixed query size keeps the set of distinct (batch, active) pairs —
	// each priced by a genuine timed forward pass — small enough for CI.
	fixed, err := deeprecsys.ParseWorkload("fixed:64")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := deeprecsys.NewSystem("NCF", "skylake",
		deeprecsys.WithEngine(deeprecsys.RealExecution),
		deeprecsys.WithWorkload(fixed),
		deeprecsys.WithSearchFidelity(300, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Engine() != deeprecsys.RealExecution {
		t.Errorf("Engine() = %v", sys.Engine())
	}
	if got := sys.Engine().String(); got != "real-execution" {
		t.Errorf("String() = %q", got)
	}
	// The real-execution engine measures genuine host timings; just check
	// an explicit configuration produces a positive capacity.
	d, err := sys.Capacity(64, 0, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.QPS <= 0 {
		t.Errorf("real-execution capacity = %v", d.QPS)
	}
}

// TestRecommendReusesModel pins the satellite fix: repeated Recommend calls
// share one model instance, so identical seeds give identical rankings and
// the second call does not pay table construction again.
func TestRecommendReusesModel(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Recommend(50, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Recommend(50, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repeated Recommend diverged: %v vs %v", a[i], b[i])
		}
	}
}

func TestServeEndToEnd(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				reply, err := svc.Submit(context.Background(), 40, 3)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if len(reply.Recs) != 3 || reply.Latency <= 0 {
					t.Errorf("reply = %+v", reply)
				}
			}
		}()
	}
	wg.Wait()

	st := svc.Stats()
	if st.Model != "NCF" || st.Completed != 20 || st.WindowLen != 20 {
		t.Errorf("stats = %+v", st)
	}
	if st.SLA != sys.SLA() {
		t.Errorf("service SLA %v != model SLA %v", st.SLA, sys.SLA())
	}
	if st.P95 <= 0 {
		t.Error("no online p95")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), 4, 1); !errors.Is(err, deeprecsys.ErrServiceClosed) {
		t.Errorf("post-Close Submit = %v", err)
	}
}

// TestServeWithGPUOffload exercises the live accelerator lane end to end
// through the public surface: a WithGPU system serves queries above the
// threshold whole on the modeled accelerator, reports the offload counters,
// and retunes the threshold through SetGPUThreshold.
func TestServeWithGPUOffload(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake", deeprecsys.WithGPU())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: 2, BatchSize: 16, GPUThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	small, err := svc.Submit(ctx, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.Offloaded || small.BatchSize != 16 {
		t.Errorf("size 50 under threshold: %+v, want CPU lane at batch 16", small)
	}
	big, err := svc.Submit(ctx, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !big.Offloaded || big.BatchSize != 200 || len(big.Recs) != 2 {
		t.Errorf("size 200 over threshold: %+v, want whole-query offload with 2 recs", big)
	}

	st := svc.Stats()
	if st.GPUThreshold != 100 || st.GPUQueries != 1 {
		t.Errorf("stats = %+v, want threshold 100 with 1 offload", st)
	}
	if st.GPUQueryShare != 0.5 {
		t.Errorf("GPUQueryShare = %v, want 0.5", st.GPUQueryShare)
	}
	if want := 200.0 / 250.0; st.GPUWorkShare != want {
		t.Errorf("GPUWorkShare = %v, want %v", st.GPUWorkShare, want)
	}

	if err := svc.SetGPUThreshold(0); err != nil || svc.GPUThreshold() != 0 {
		t.Fatalf("SetGPUThreshold(0): %v, threshold %d", err, svc.GPUThreshold())
	}
	again, err := svc.Submit(ctx, 200, 0)
	if err != nil || again.Offloaded {
		t.Errorf("offload disabled: err=%v reply=%+v", err, again)
	}
}

// TestServeGPUValidation pins the capability checks: an offload threshold
// needs a provisioned accelerator, both at Serve time and when retuning a
// running CPU-only service.
func TestServeGPUValidation(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serve(deeprecsys.ServeOptions{GPUThreshold: 10}); err == nil {
		t.Error("Serve accepted an offload threshold without WithGPU")
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.SetGPUThreshold(10); err == nil {
		t.Error("SetGPUThreshold accepted on a CPU-only service")
	}
}

// TestServeFleet exercises the fleet tier through the public surface: a
// two-replica least-loaded fleet serves concurrent traffic, reports
// fleet-wide and per-replica stats, and changes membership under load.
func TestServeFleet(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Workers:       1,
		BatchSize:     16,
		Replicas:      2,
		RoutingPolicy: "least-loaded",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				reply, err := svc.Submit(context.Background(), 40, 3)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if len(reply.Recs) != 3 || reply.Latency <= 0 {
					t.Errorf("reply = %+v", reply)
				}
				if reply.Replica < 0 || reply.Replica > 1 {
					t.Errorf("reply.Replica = %d, want 0 or 1", reply.Replica)
				}
			}
		}()
	}
	wg.Wait()

	st := svc.Stats()
	if st.Model != "NCF" || st.Completed != 20 || st.WindowLen != 20 {
		t.Errorf("stats = %+v", st)
	}
	if st.Replicas != 2 || st.RoutingPolicy != "least-loaded" || len(st.PerReplica) != 2 {
		t.Errorf("fleet stats = %+v, want 2 replicas under least-loaded", st)
	}
	var perReplica uint64
	for _, r := range st.PerReplica {
		perReplica += r.Completed
	}
	if perReplica != st.Completed {
		t.Errorf("per-replica Completed sums to %d, fleet reports %d", perReplica, st.Completed)
	}
	if st.SLA != sys.SLA() {
		t.Errorf("fleet SLA %v != model SLA %v", st.SLA, sys.SLA())
	}

	// Membership under the public surface: add, drain, remove.
	id, err := svc.AddReplica(false)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("AddReplica ID %d, want 2", id)
	}
	if err := svc.DrainReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := svc.RemoveReplica(0); err != nil {
		t.Fatal(err)
	}
	st = svc.Stats()
	if st.Replicas != 2 || st.Completed != 20 {
		t.Errorf("after churn: %d replicas, %d completed, want 2 and 20 (retired counts kept)", st.Replicas, st.Completed)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), 4, 1); !errors.Is(err, deeprecsys.ErrServiceClosed) {
		t.Errorf("post-Close Submit = %v", err)
	}
}

// TestServeFleetValidation pins the fleet-tier construction checks.
func TestServeFleetValidation(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	bad := []deeprecsys.ServeOptions{
		{Replicas: -1},
		{Replicas: 2, RoutingPolicy: "nope"},
		{RoutingPolicy: "nope"}, // fleet options fail at any replica count
		{Jitter: -0.1},
		{GPUReplicas: -1},
		{GPUReplicas: 1}, // needs WithGPU
		{Replicas: 2, Jitter: -0.1},
		{Replicas: 2, GPUReplicas: 3},
		{Replicas: 2, GPUReplicas: 1}, // needs WithGPU
	}
	for i, opts := range bad {
		opts.Workers = 1
		if svc, err := sys.Serve(opts); err == nil {
			svc.Close()
			t.Errorf("bad fleet options %d accepted: %+v", i, opts)
		}
	}
}

// TestServeOneReplicaIsAFleet pins the one service path: the default
// (Replicas 0) service is a fleet of one — it reports its single replica,
// grows with AddReplica, retires replica 0 with its counters folded into
// the totals, and accepts the fleet-level options at one replica.
func TestServeOneReplicaIsAFleet(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		t.Fatal(err)
	}
	tenants := []deeprecsys.TenantSpec{{Model: "NCF", Name: "a"}, {Model: "NCF", Name: "b", Seed: 2}}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 16, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	const n = 6
	for i := 0; i < n; i++ {
		reply, err := svc.Submit(ctx, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Replica != 0 {
			t.Errorf("Reply.Replica = %d, want 0", reply.Replica)
		}
	}
	st := svc.Stats()
	if st.Replicas != 1 || st.Healthy != 1 || st.RoutingPolicy != "round-robin" {
		t.Errorf("stats = %+v, want 1 healthy replica under round-robin", st)
	}
	if len(st.PerReplica) != 1 || st.PerReplica[0].ID != 0 || st.PerReplica[0].Completed != n {
		t.Fatalf("PerReplica = %+v, want one entry, ID 0, %d completed", st.PerReplica, n)
	}
	if err := svc.DrainReplica(0); err == nil {
		t.Error("drained the last routable replica")
	}

	id, err := svc.AddReplica(false)
	if err != nil || id != 1 {
		t.Fatalf("AddReplica = %d, %v; want ID 1", id, err)
	}
	if got := svc.Stats().Replicas; got != 2 {
		t.Fatalf("after AddReplica: %d replicas, want 2", got)
	}
	if err := svc.DrainReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := svc.RemoveReplica(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		reply, err := svc.Submit(ctx, 40, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Replica != 1 {
			t.Errorf("after removing replica 0: Reply.Replica = %d, want 1", reply.Replica)
		}
	}
	st = svc.Stats()
	if len(st.PerReplica) != 1 || st.PerReplica[0].ID != 1 {
		t.Fatalf("PerReplica after churn = %+v, want only replica 1", st.PerReplica)
	}
	if st.Submitted != 2*n || st.Completed != 2*n || !st.Conserved() {
		t.Errorf("ledger after churn = %+v, want %d submitted and completed (replica 0's counters folded)", st.Ledger, 2*n)
	}
	var sum deeprecsys.Ledger
	for _, ts := range st.Tenants {
		if !ts.Conserved() {
			t.Errorf("tenant %s not conserved: %+v", ts.Name, ts.Ledger)
		}
		sum = sum.Add(ts.Ledger)
	}
	if sum != st.Ledger {
		t.Errorf("fleet totals != tenant sums:\nfleet   %+v\ntenants %+v", st.Ledger, sum)
	}

	// The options that used to require Replicas >= 2 work at one replica.
	for i, opts := range []deeprecsys.ServeOptions{
		{Replicas: 1, Retry: true},
		{Replicas: 1, Chaos: "every=1h,crash=0.5,restart=1s"},
		{Replicas: 1, AutoScale: true, MinReplicas: 1, MaxReplicas: 2},
		{Replicas: 1, Tenants: []deeprecsys.TenantSpec{{Model: "NCF", MaxOutstanding: 8}}},
	} {
		opts.Workers = 1
		one, err := sys.Serve(opts)
		if err != nil {
			t.Errorf("fleet option set %d refused at one replica: %v", i, err)
			continue
		}
		if _, err := one.Submit(ctx, 8, 0); err != nil {
			t.Errorf("fleet option set %d: Submit: %v", i, err)
		}
		one.Close()
	}
}

// TestOneReplicaMatchesFleetReplicaZero pins that the default service is
// exactly replica 0 of a larger fleet: same seed stream, same nominal speed,
// so the same query sequence returns bit-identical recommendations.
func TestOneReplicaMatchesFleetReplicaZero(t *testing.T) {
	sys, err := deeprecsys.NewSystem("NCF", "skylake", deeprecsys.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	one, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	two, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 16, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	if err := two.DrainReplica(1); err != nil { // all traffic to replica 0
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, size := range []int{40, 7, 129, 16, 300} {
		a, err := one.Submit(ctx, size, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := two.Submit(ctx, size, 5)
		if err != nil {
			t.Fatal(err)
		}
		if b.Replica != 0 || !reflect.DeepEqual(a.Recs, b.Recs) {
			t.Errorf("query %d (size %d): one-replica recs %v, fleet replica %d recs %v", i, size, a.Recs, b.Replica, b.Recs)
		}
	}
}
