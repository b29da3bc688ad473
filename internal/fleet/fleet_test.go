package fleet

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
)

// testModel builds a small, fast zoo model shared across fleet tests.
func testModel(t testing.TB) *model.Model {
	t.Helper()
	cfg, err := model.ByName("NCF")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// baseConfig is one fast CPU-only replica config.
func baseConfig(m *model.Model, seed int64) live.Config {
	return live.Config{Model: m, Workers: 1, BatchSize: 16, Seed: seed}
}

func newFleet(t testing.TB, cfgs []live.Config, p Policy) *Fleet {
	t.Helper()
	f, err := New(cfgs, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// pollLedgerIdentity reads f.Stats() again and again until the returned stop
// is called, and fails the test at the first poll whose fleet-wide ledger is
// not the sum of the tenant ledgers reported with it — queries in flight,
// membership churn and retired members included.
func pollLedgerIdentity(t *testing.T, f *Fleet) (stop func()) {
	t.Helper()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for polls := 1; ; polls++ {
			st := f.Stats()
			var sum live.Ledger
			for _, ts := range st.Tenants {
				sum = sum.Add(ts.Ledger)
			}
			if sum != st.Ledger {
				t.Errorf("poll %d: fleet ledger != sum of tenant ledgers:\nfleet   %+v\ntenants %+v", polls, st.Ledger, sum)
				return
			}
			select {
			case <-quit:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// countingBackend counts the Snapshots taken of the member it wraps.
type countingBackend struct {
	Backend
	snaps atomic.Int64
}

func (c *countingBackend) Snapshot() live.Snapshot {
	c.snaps.Add(1)
	return c.Backend.Snapshot()
}

// TestStatsTakesOneSnapshotPerMember pins the cost of a read in reads, not
// microseconds: Stats and AsBackend's Snapshot take exactly one Snapshot of
// every member, and Remove exactly one of the member it retires.
func TestStatsTakesOneSnapshotPerMember(t *testing.T) {
	ncf, rmc := tenantModels(t)
	f := newFleet(t, []live.Config{tenantConfig(ncf, rmc, 1), tenantConfig(ncf, rmc, 2), tenantConfig(ncf, rmc, 3)}, nil)
	members := make([]*countingBackend, len(f.replicas))
	for i, r := range f.replicas {
		members[i] = &countingBackend{Backend: r.svc}
		r.svc = members[i]
	}
	expect := func(what string, want ...int64) {
		t.Helper()
		for i, m := range members {
			if got := m.snaps.Swap(0); got != want[i] {
				t.Errorf("%s took %d snapshots of member %d, want %d", what, got, i, want[i])
			}
		}
	}
	f.Stats()
	expect("Stats", 1, 1, 1)
	f.AsBackend().Snapshot()
	expect("AsBackend().Snapshot", 1, 1, 1)
	if err := f.Remove(1); err != nil {
		t.Fatal(err)
	}
	expect("Remove", 0, 1, 0)
}

// --- Policy unit tests (no services involved) ---

func candN(n int) []Candidate {
	c := make([]Candidate, n)
	for i := range c {
		c[i] = Candidate{ID: i, Speed: 1}
	}
	return c
}

// TestRoundRobinFairness checks the distribution over a static candidate
// set is exactly uniform: k full cycles give every replica k picks.
func TestRoundRobinFairness(t *testing.T) {
	p := NewRoundRobin()
	cands := candN(5)
	counts := make([]int, len(cands))
	const cycles = 40
	for i := 0; i < cycles*len(cands); i++ {
		counts[p.Pick(0, 100, nil, cands)]++
	}
	for i, c := range counts {
		if c != cycles {
			t.Errorf("replica %d picked %d times, want %d", i, c, cycles)
		}
	}
}

// TestLeastLoadedSkew models the skewed-query-size scenario: a replica
// stuck on big queries carries more outstanding work and must stop
// attracting traffic, regardless of its position.
func TestLeastLoadedSkew(t *testing.T) {
	p := NewLeastLoaded()
	cands := candN(3)
	cands[0].Outstanding = 4 // busy on a heavy query
	cands[1].Outstanding = 1
	cands[2].Outstanding = 0
	if got := p.Pick(0, 10, nil, cands); got != 2 {
		t.Errorf("least-loaded picked %d, want 2", got)
	}
	// Ties break toward the faster node, then the lower ID.
	cands[2].Outstanding = 1
	cands[2].Speed = 0.9
	if got := p.Pick(0, 10, nil, cands); got != 2 {
		t.Errorf("tie should prefer the faster node, picked %d", got)
	}
	cands[2].Speed = 1
	if got := p.Pick(0, 10, nil, cands); got != 1 {
		t.Errorf("speed tie should prefer the lower ID, picked %d", got)
	}
}

// TestSizeAwareSteering checks the split by each candidate's own offload
// threshold: a query goes to the least-loaded replica that would offload it,
// else to the least-loaded replica that offloads nothing (threshold 0: CPU-
// only, or its threshold is off), else to the least-loaded replica overall.
func TestSizeAwareSteering(t *testing.T) {
	p := NewSizeAware()
	cands := candN(4)
	cands[1].Threshold = 400
	cands[2].Threshold, cands[3].Threshold = 100, 100
	cands[2].Outstanding, cands[3].Outstanding = 3, 1

	if got := p.Pick(0, 200, nil, cands); got != 3 {
		t.Errorf("200-item query picked %d, want 3, the least-loaded replica that offloads it", got)
	}
	if got := p.Pick(0, 400, nil, cands); got != 1 {
		t.Errorf("400-item query picked %d, want 1, the least-loaded replica that offloads it", got)
	}
	cands[0].Outstanding = 2
	if got := p.Pick(0, 50, nil, cands); got != 0 {
		t.Errorf("small query picked %d, want 0, the one replica that offloads nothing", got)
	}
	// A threshold-0 replica is never preferred for a big query, even when it
	// is the less loaded.
	if got := p.Pick(0, 1000, nil, []Candidate{cands[0], cands[2]}); got != 1 {
		t.Errorf("big query picked %d, want the busier offloading replica 2", got)
	}
	// Nobody offloads a small query and nobody has threshold 0: least-loaded
	// over everyone; the same for a fleet where nobody offloads at all.
	allGPU := candN(2)
	allGPU[0].Threshold, allGPU[1].Threshold = 100, 100
	allGPU[0].Outstanding = 2
	if got := p.Pick(0, 50, nil, allGPU); got != 1 {
		t.Errorf("small query with no threshold-0 replica picked %d, want 1", got)
	}
	cpuOnly := candN(2)
	cpuOnly[0].Outstanding = 2
	if got := p.Pick(0, 500, nil, cpuOnly); got != 1 {
		t.Errorf("big query with no offloading replica picked %d, want 1", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, spec := range []string{"", "round-robin", "least-loaded", "size-aware"} {
		if _, err := ParsePolicy(spec); err != nil {
			t.Errorf("ParsePolicy(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"nope", "round-robin:3", "least-loaded:x", "size-aware:0", "size-aware:abc"} {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", spec)
		}
	}
	// The router keeps no threshold of its own: the refusal names the one
	// knob there is.
	for _, spec := range []string{"size-aware:256", "size-aware:"} {
		_, err := ParsePolicy(spec)
		if err == nil || !strings.Contains(err.Error(), "GPUThreshold") || !strings.Contains(err.Error(), "-threshold") {
			t.Errorf("ParsePolicy(%q) = %v, want a refusal naming the tenant offload threshold", spec, err)
		}
	}
}

// TestPolicyUsagesParse: the list `serve -policy` prints and the unknown-
// policy error enumerates is the parser's own table, so every listed form
// must parse and none may be missing.
func TestPolicyUsagesParse(t *testing.T) {
	usages := PolicyUsages()
	if len(usages) != 5 {
		t.Errorf("PolicyUsages lists %d policies, want 5: %v", len(usages), usages)
	}
	_, err := ParsePolicy("nope")
	for _, u := range usages {
		name, _, _ := strings.Cut(u, "[")
		if _, perr := ParsePolicy(name); perr != nil {
			t.Errorf("listed policy %q does not parse: %v", u, perr)
		}
		if err == nil || !strings.Contains(err.Error(), u) {
			t.Errorf("unknown-policy error %v does not list %q", err, u)
		}
	}
}

// --- Fleet integration tests ---

// TestRoundRobinDistribution submits sequentially through a round-robin
// fleet and checks the queries spread exactly evenly.
func TestRoundRobinDistribution(t *testing.T) {
	m := testModel(t)
	f := newFleet(t, []live.Config{baseConfig(m, 1), baseConfig(m, 2), baseConfig(m, 3)}, NewRoundRobin())
	const perReplica = 6
	for i := 0; i < 3*perReplica; i++ {
		if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 8}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range f.Stats().Replicas {
		if r.Completed != perReplica {
			t.Errorf("replica %d completed %d, want %d", r.ID, r.Completed, perReplica)
		}
	}
}

// TestLeastLoadedAvoidsBusyReplica pins one replica with an in-flight
// heavy query and checks the least-loaded router steers everything else to
// the idle replica while the heavy query runs.
func TestLeastLoadedAvoidsBusyReplica(t *testing.T) {
	m := testModel(t)
	// One worker and tiny batches make a big query occupy replica 0 long
	// enough to observe routing while it is outstanding.
	cfgs := []live.Config{baseConfig(m, 1), baseConfig(m, 2)}
	cfgs[0].BatchSize = 1
	cfgs[1].BatchSize = 1
	f := newFleet(t, cfgs, NewLeastLoaded())

	// Occupy one replica with a heavy query.
	release := make(chan struct{})
	go func() {
		defer close(release)
		if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 1000}); err != nil {
			t.Error(err)
		}
	}()
	// Identify the busy replica from the routing state itself (the
	// tie-break picks it deterministically, but the test must not depend
	// on which one that is).
	busy := -1
	deadline := time.Now().Add(5 * time.Second)
	for busy < 0 {
		for _, r := range f.Stats().Replicas {
			if r.Outstanding > 0 {
				busy = r.ID
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("heavy query never became outstanding")
		}
		if busy < 0 {
			time.Sleep(time.Millisecond)
		}
	}
	// While it runs, small queries must land on the other replica.
	for i := 0; i < 5; i++ {
		select {
		case <-release:
			t.Skip("heavy query finished before steering could be observed")
		default:
		}
		_, id, err := f.Submit(context.Background(), live.Query{Candidates: 2})
		if err != nil {
			t.Fatal(err)
		}
		if id == busy {
			st := f.Stats()
			t.Fatalf("small query routed to the busy replica %d (outstanding %v)",
				id, []int{st.Replicas[0].Outstanding, st.Replicas[1].Outstanding})
		}
	}
	<-release
}

// TestSizeAwareFleetRouting runs a mixed CPU/GPU fleet and checks big
// queries land on the GPU replica and small ones on the CPU replica.
func TestSizeAwareFleetRouting(t *testing.T) {
	m := testModel(t)
	cpu := baseConfig(m, 1)
	gpu := live.Config{Workers: 1, Seed: 2, GPU: platform.DefaultGPU(), Tenants: []live.TenantConfig{
		{Name: "NCF", Model: m, BatchSize: 16, GPUThreshold: 100},
	}}
	f := newFleet(t, []live.Config{cpu, gpu}, NewSizeAware())

	reply, id, err := f.Submit(context.Background(), live.Query{Candidates: 400})
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("big query served by replica %d, want GPU replica 1", id)
	}
	if !reply.Offloaded {
		t.Errorf("big query on the GPU replica was not offloaded (threshold 100, size 400)")
	}
	if _, id, err = f.Submit(context.Background(), live.Query{Candidates: 8}); err != nil {
		t.Fatal(err)
	} else if id != 0 {
		t.Errorf("small query served by replica %d, want CPU replica 0", id)
	}

	st := f.Stats()
	if st.GPUQueryShare != 0.5 {
		t.Errorf("GPUQueryShare = %v, want 0.5 (1 of 2 queries offloaded)", st.GPUQueryShare)
	}
	if want := 400.0 / 408.0; st.GPUWorkShare != want {
		t.Errorf("GPUWorkShare = %v, want %v", st.GPUWorkShare, want)
	}
	// The fleet viewed as one Backend carries the item counts, so an
	// upstream fleet merging it recomputes the same exact work share.
	if up := live.Fold(f.AsBackend().Snapshot().Tenants).Ledger; up.WorkItems != 408 || up.GPUItems != 400 || up.GPUWorkShare() != st.GPUWorkShare {
		t.Errorf("AsBackend ledger = %+v, want 400 of 408 items offloaded", up)
	}
	// Removing the GPU replica must keep the lifetime counters and shares
	// consistent: the offloads it served stay in the totals.
	if err := f.Remove(1); err != nil {
		t.Fatal(err)
	}
	st = f.Stats()
	if st.GPUQueries != 1 || st.GPUQueryShare != 0.5 {
		t.Errorf("after removal: GPUQueries=%d share=%v, want 1 and 0.5", st.GPUQueries, st.GPUQueryShare)
	}
	if want := 400.0 / 408.0; st.GPUWorkShare != want {
		t.Errorf("after removal: GPUWorkShare = %v, want %v", st.GPUWorkShare, want)
	}
}

// TestSizeAwareSteersByMemberThreshold: size-aware routing reads each
// member's own tenant offload threshold. A 256-item query goes to the GPU
// member offloading at 128 and runs offloaded there; a small query goes to
// the member that offloads nothing, though the GPU member (ID 0) would win
// their tie; once the GPU member's threshold is 0, big queries have no
// member to prefer and go to the CPU-only member, which wins that tie.
func TestSizeAwareSteersByMemberThreshold(t *testing.T) {
	m := testModel(t)
	gpu := func(thresh int) live.Config {
		return live.Config{Workers: 1, Seed: 2, GPU: platform.DefaultGPU(), Tenants: []live.TenantConfig{
			{Name: "NCF", Model: m, BatchSize: 16, GPUThreshold: thresh},
		}}
	}
	p, err := ParsePolicy("size-aware")
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, []live.Config{gpu(128), baseConfig(m, 1)}, p)
	ctx := context.Background()
	submit := func(size, wantID int) live.Reply {
		t.Helper()
		reply, id, err := f.Submit(ctx, live.Query{Candidates: size})
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID {
			t.Errorf("%d-item query served by replica %d, want %d", size, id, wantID)
		}
		return reply
	}
	if !submit(256, 0).Offloaded {
		t.Error("256-item query on the member offloading at 128 was not offloaded")
	}
	submit(8, 1)
	// The GPU member comes back with its threshold off (ID 2): it offloads
	// nothing, so a big query has no member to prefer.
	if err := f.Remove(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add(gpu(0)); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{256, 600} {
		if submit(size, 1).Offloaded {
			t.Errorf("%d-item query ran offloaded on a CPU-only member", size)
		}
	}
}

// TestDrainWithoutLoss drains and removes a replica while it has queries
// in flight and checks none is dropped: every submission completes and the
// removed replica's counters fold into the fleet totals.
func TestDrainWithoutLoss(t *testing.T) {
	m := testModel(t)
	cfgs := []live.Config{baseConfig(m, 1), baseConfig(m, 2)}
	cfgs[0].BatchSize = 1 // slow the victim down so the drain overlaps work
	f := newFleet(t, cfgs, NewRoundRobin())

	const n = 12
	var wg sync.WaitGroup
	var completed atomic.Uint64
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 120}); err != nil {
				t.Error(err)
			} else {
				completed.Add(1)
			}
		}()
	}
	// Let some submissions route, then take replica 0 out from under them.
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().Submitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := completed.Load(); got != n {
		t.Errorf("%d of %d queries completed across the drain", got, n)
	}
	st := f.Stats()
	if st.Size != 1 || len(st.Replicas) != 1 {
		t.Errorf("fleet has %d routable / %d members after removal, want 1/1", st.Size, len(st.Replicas))
	}
	if st.Completed != n {
		t.Errorf("fleet lifetime Completed %d after removal, want %d (retired counters lost?)", st.Completed, n)
	}
}

// TestMembership covers the add/drain/remove edge cases.
func TestMembership(t *testing.T) {
	m := testModel(t)
	f := newFleet(t, []live.Config{baseConfig(m, 1)}, nil)

	if err := f.Drain(0); !errors.Is(err, ErrLastReplica) {
		t.Errorf("draining the last replica: %v, want ErrLastReplica", err)
	}
	if err := f.Remove(0); !errors.Is(err, ErrLastReplica) {
		t.Errorf("removing the last replica: %v, want ErrLastReplica", err)
	}
	if err := f.Drain(99); err == nil {
		t.Error("draining an unknown replica succeeded")
	}

	id, err := f.Add(baseConfig(m, 2))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("added replica got ID %d, want 1", id)
	}
	if err := f.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(0); err != nil {
		t.Errorf("re-draining a draining replica: %v, want nil", err)
	}
	// A drained replica attracts no traffic.
	for i := 0; i < 4; i++ {
		if _, rid, err := f.Submit(context.Background(), live.Query{Candidates: 8}); err != nil {
			t.Fatal(err)
		} else if rid == 0 {
			t.Error("query routed to a draining replica")
		}
	}
	if err := f.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(0); err == nil {
		t.Error("removing a removed replica succeeded")
	}

	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 8}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := f.Add(baseConfig(m, 3)); !errors.Is(err, ErrClosed) {
		t.Errorf("Add after Close: %v, want ErrClosed", err)
	}
}

// TestStatsAggregation checks the fleet percentiles merge every replica's
// window and the counters sum across replicas.
func TestStatsAggregation(t *testing.T) {
	m := testModel(t)
	f := newFleet(t, []live.Config{baseConfig(m, 1), baseConfig(m, 2)}, NewRoundRobin())
	const n = 10
	for i := 0; i < n; i++ {
		if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 16}); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Submitted != n || st.Completed != n {
		t.Errorf("fleet counters %d/%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	var windows, completed int
	for _, r := range st.Replicas {
		windows += r.WindowLen
		completed += int(r.Completed)
	}
	if st.WindowLen != windows {
		t.Errorf("merged window holds %d samples, want the replicas' sum %d", st.WindowLen, windows)
	}
	if completed != n {
		t.Errorf("replica Completed sums to %d, want %d", completed, n)
	}
	if st.P95 < st.P50 || st.P50 <= 0 {
		t.Errorf("implausible fleet percentiles p50=%v p95=%v", st.P50, st.P95)
	}
}

// TestKnobs checks how Stats reports the members' knobs: each replica's
// own batch size and offload threshold, the fleet-wide batch size the first
// replica's and the fleet-wide threshold the first GPU-capable replica's.
func TestKnobs(t *testing.T) {
	m := testModel(t)
	cpu := baseConfig(m, 1)
	gpu := live.Config{Workers: 1, Seed: 2, GPU: platform.DefaultGPU(), Tenants: []live.TenantConfig{
		{Name: "NCF", Model: m, BatchSize: 64, GPUThreshold: 500},
	}}
	st := newFleet(t, []live.Config{cpu, gpu}, nil).Stats()
	if st.Replicas[0].BatchSize != 16 || st.Replicas[1].BatchSize != 64 {
		t.Errorf("replica batches %d/%d, want 16/64", st.Replicas[0].BatchSize, st.Replicas[1].BatchSize)
	}
	if st.Replicas[0].GPUThreshold != 0 || st.Replicas[1].GPUThreshold != 500 {
		t.Errorf("replica thresholds %d/%d, want 0/500", st.Replicas[0].GPUThreshold, st.Replicas[1].GPUThreshold)
	}
	if st.BatchSize != 16 || st.GPUThreshold != 500 {
		t.Errorf("fleet knobs batch %d threshold %d, want 16 and 500", st.BatchSize, st.GPUThreshold)
	}
}

// TestMixedFleetSoak is the -race soak: a heterogeneous fleet (CPU-only,
// GPU-capable, and a slowed node) under size-aware routing with per-replica
// AutoTune, concurrent submitters of mixed sizes, and a membership change
// mid-flight. Asserts conservation: everything submitted either completes
// or is accounted cancelled, and the fleet drains cleanly.
func TestMixedFleetSoak(t *testing.T) {
	m := testModel(t)
	sla := 250 * time.Millisecond
	mk := func(seed int64, gpu bool, scale float64) live.Config {
		tc := live.TenantConfig{Name: "NCF", Model: m, BatchSize: 16, SLA: sla}
		cfg := live.Config{Workers: 1, Seed: seed, Scale: scale, AutoTune: true, TuneInterval: 20 * time.Millisecond}
		if gpu {
			cfg.GPU = platform.DefaultGPU()
			tc.GPUThreshold = 200
		}
		cfg.Tenants = []live.TenantConfig{tc}
		return cfg
	}
	f, err := New([]live.Config{mk(1, false, 1), mk(2, true, 1), mk(3, false, 1.2)}, NewSizeAware())
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 6
	const perSubmitter = 10
	var wg sync.WaitGroup
	var completed, cancelled atomic.Uint64
	wg.Add(submitters)
	for g := 0; g < submitters; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSubmitter; i++ {
				size := 1 + rng.Intn(300)
				topN := 0
				if i%3 == 0 {
					topN = 3
				}
				ctx := context.Background()
				if i%7 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(5))*time.Millisecond)
					defer cancel()
				}
				_, _, err := f.Submit(ctx, live.Query{Candidates: size, TopN: topN})
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					t.Errorf("submitter %d: %v", g, err)
				}
			}
		}(g)
	}

	// Membership churn while traffic flows: add a GPU replica, then drain
	// and remove the slow one.
	stopPolling := pollLedgerIdentity(t, f)
	id, err := f.Add(mk(4, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Errorf("churn replica got ID %d, want 3", id)
	}
	if err := f.Remove(2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	stopPolling()

	st := f.Stats()
	want := uint64(submitters * perSubmitter)
	if completed.Load()+cancelled.Load() != want {
		t.Errorf("accounted %d+%d queries, want %d", completed.Load(), cancelled.Load(), want)
	}
	if st.Submitted != want {
		t.Errorf("fleet Submitted %d, want %d", st.Submitted, want)
	}
	if st.Completed != completed.Load() {
		t.Errorf("fleet Completed %d, caller saw %d", st.Completed, completed.Load())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseAbandonsQueued pins the shutdown semantics a fleet of one
// inherits from its replica: Close lets the executing query finish, flushes
// the queries still parked in the admission queue with ErrShutdown rather
// than serving the backlog first, and the ledger records them as Abandoned.
func TestCloseAbandonsQueued(t *testing.T) {
	cfg := live.Config{Workers: 1, Seed: 1, Tenants: []live.TenantConfig{{
		Name: "NCF", Model: testModel(t), BatchSize: 16,
		Admission: live.AdmissionConfig{Policy: live.AdmitQueue, Concurrency: 1, Depth: 8},
	}}}
	f := newFleet(t, []live.Config{cfg}, nil)
	// The injected delay holds the one admission slot open past the forward
	// pass, so the holder is slow however fast the kernels are.
	if err := f.replicas[0].svc.(faulter).SetDelay(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const queued = 4
	errs := make(chan error, 1+queued)
	for i := 0; i < 1+queued; i++ {
		go func() {
			_, _, err := f.Submit(context.Background(), live.Query{Candidates: 10})
			errs <- err
		}()
	}
	waitUntil(t, 5*time.Second, "queue forms behind the holder", func() bool { return f.Stats().Queued == queued })
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var done, shutdown int
	for i := 0; i < 1+queued; i++ {
		switch err := <-errs; {
		case err == nil:
			done++
		case errors.Is(err, live.ErrShutdown):
			shutdown++
		default:
			t.Errorf("Submit at close = %v, want completion or ErrShutdown", err)
		}
	}
	st := f.Stats()
	if done != 1 || shutdown != queued || st.Completed != 1 || st.Abandoned != queued || !st.Conserved() {
		t.Errorf("%d completed / %d flushed, ledger %+v; want 1 completed and %d abandoned", done, shutdown, st.Ledger, queued)
	}
}
