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
// microseconds: Stats, the knob getters and AsBackend's Snapshot take
// exactly one Snapshot of every member, and Remove exactly one of the member
// it retires.
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
	f.BatchSize()
	expect("BatchSize", 1, 1, 1)
	f.GPUThreshold()
	expect("GPUThreshold", 1, 1, 1)
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
		counts[p.Pick(100, cands)]++
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
	if got := p.Pick(10, cands); got != 2 {
		t.Errorf("least-loaded picked %d, want 2", got)
	}
	// Ties break toward the faster node, then the lower ID.
	cands[2].Outstanding = 1
	cands[2].Speed = 0.9
	if got := p.Pick(10, cands); got != 2 {
		t.Errorf("tie should prefer the faster node, picked %d", got)
	}
	cands[2].Speed = 1
	if got := p.Pick(10, cands); got != 1 {
		t.Errorf("speed tie should prefer the lower ID, picked %d", got)
	}
}

// TestSizeAwareSteering checks the split: big queries to GPU-capable
// replicas, small ones kept on CPU-only replicas, least-loaded within each
// class, graceful fallback when a class is empty.
func TestSizeAwareSteering(t *testing.T) {
	p := NewSizeAware(100)
	cands := candN(4)
	cands[2].HasGPU = true
	cands[3].HasGPU = true
	cands[2].Outstanding = 3

	if got := p.Pick(200, cands); got != 3 {
		t.Errorf("big query picked %d, want least-loaded GPU replica 3", got)
	}
	cands[0].Outstanding = 1
	if got := p.Pick(50, cands); got != 1 {
		t.Errorf("small query picked %d, want least-loaded CPU replica 1", got)
	}
	// Homogeneous fleets degrade to least-loaded over everyone.
	cpuOnly := candN(2)
	cpuOnly[0].Outstanding = 2
	if got := p.Pick(500, cpuOnly); got != 1 {
		t.Errorf("big query with no GPU replica picked %d, want 1", got)
	}
	allGPU := candN(2)
	allGPU[0].HasGPU, allGPU[1].HasGPU = true, true
	allGPU[1].Outstanding = 2
	if got := p.Pick(50, allGPU); got != 0 {
		t.Errorf("small query with no CPU replica picked %d, want 0", got)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, spec := range []string{"", "round-robin", "least-loaded", "size-aware", "size-aware:300"} {
		if _, err := ParsePolicy(spec); err != nil {
			t.Errorf("ParsePolicy(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"nope", "round-robin:3", "least-loaded:x", "size-aware:0", "size-aware:abc"} {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", spec)
		}
	}
	p, err := ParsePolicy("size-aware")
	if err != nil {
		t.Fatal(err)
	}
	if p.(SizeAware).Threshold != DefaultSizeThreshold {
		t.Errorf("default size-aware threshold %d, want %d", p.(SizeAware).Threshold, DefaultSizeThreshold)
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
	gpu := baseConfig(m, 2)
	gpu.GPU = platform.DefaultGPU()
	gpu.GPUThreshold = 100
	f := newFleet(t, []live.Config{cpu, gpu}, NewSizeAware(100))

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

// TestKnobs checks fleet-wide knob setting: batch size on every replica,
// offload threshold on GPU-capable replicas only.
func TestKnobs(t *testing.T) {
	m := testModel(t)
	cpu := baseConfig(m, 1)
	gpu := baseConfig(m, 2)
	gpu.GPU = platform.DefaultGPU()
	gpu.GPUThreshold = 500
	f := newFleet(t, []live.Config{cpu, gpu}, nil)

	if err := f.SetBatchSize(64); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Stats().Replicas {
		if r.BatchSize != 64 {
			t.Errorf("replica %d batch %d after SetBatchSize(64)", r.ID, r.BatchSize)
		}
	}
	if err := f.SetBatchSize(0); err == nil {
		t.Error("batch size 0 accepted")
	}
	if err := f.SetGPUThreshold(250); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Replicas[0].GPUThreshold != 0 || st.Replicas[1].GPUThreshold != 250 {
		t.Errorf("thresholds %d/%d after SetGPUThreshold(250), want 0/250",
			st.Replicas[0].GPUThreshold, st.Replicas[1].GPUThreshold)
	}

	cpuOnly := newFleet(t, []live.Config{baseConfig(m, 3)}, nil)
	if err := cpuOnly.SetGPUThreshold(100); err == nil {
		t.Error("SetGPUThreshold on a GPU-less fleet succeeded")
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
		cfg := baseConfig(m, seed)
		cfg.Scale = scale
		cfg.SLA = sla
		cfg.AutoTune = true
		cfg.TuneInterval = 20 * time.Millisecond
		if gpu {
			cfg.GPU = platform.DefaultGPU()
			cfg.GPUThreshold = 200
		}
		return cfg
	}
	f, err := New([]live.Config{mk(1, false, 1), mk(2, true, 1), mk(3, false, 1.2)}, NewSizeAware(200))
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
	cfg := baseConfig(testModel(t), 1)
	cfg.Admission = live.AdmissionConfig{Policy: live.AdmitQueue, Concurrency: 1, Depth: 8}
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
