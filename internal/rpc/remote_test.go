package rpc

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
)

// startRemoteServer publishes a fresh single-model live.Service over the
// wire, returning the pieces and the bound address.
func startRemoteServer(t testing.TB, seed int64) (*live.Service, *Server, string) {
	t.Helper()
	svc := newLiveService(t, live.Config{Model: testModel(t), Workers: 1, BatchSize: 16, Seed: seed})
	srv := startServer(t, svc, ServerConfig{})
	return svc, srv, srv.Addr()
}

// startGPUServer publishes a single-tenant live.Service with the
// accelerator lane, offloading queries of at least 100 items, over the wire.
func startGPUServer(t testing.TB) (*live.Service, string) {
	t.Helper()
	svc := newLiveService(t, live.Config{Workers: 1, Seed: 1, GPU: platform.DefaultGPU(), Tenants: []live.TenantConfig{
		{Name: "NCF", Model: testModel(t), BatchSize: 16, GPUThreshold: 100},
	}})
	return svc, startServer(t, svc, ServerConfig{}).Addr()
}

func newLocalFleet(t testing.TB, seed int64) *fleet.Fleet {
	t.Helper()
	return newLocalFleetRouting(t, seed, nil)
}

// newLocalFleetRouting is newLocalFleet under the given routing policy.
func newLocalFleetRouting(t testing.TB, seed int64, p fleet.Policy) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New([]live.Config{{Model: testModel(t), Workers: 1, BatchSize: 16, Seed: seed}}, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestRemoteReplicaServesInFleet joins a wire replica to a fleet beside a
// local one and checks it is a full routing citizen: round-robin sends it
// traffic, its served counters merge into the fleet ledger, the front-door
// identity holds, and Remove folds its counters without losing them.
func TestRemoteReplicaServesInFleet(t *testing.T) {
	_, _, addr := startRemoteServer(t, 1)
	f := newLocalFleet(t, 2)

	r, err := NewRemoteReplica(addr)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const n = 20
	for i := 0; i < n; i++ {
		if _, _, err := f.Submit(ctx, live.Query{Candidates: 32}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	st := f.Stats()
	if st.FrontSubmitted != n || st.Completed != n {
		t.Fatalf("fleet front=%d completed=%d, want %d/%d", st.FrontSubmitted, st.Completed, n, n)
	}
	var sum uint64
	remoteServed := uint64(0)
	for _, rs := range st.Replicas {
		sum += rs.Submitted
		if rs.ID == remoteID {
			remoteServed = rs.Submitted
		}
	}
	if sum != st.FrontSubmitted+st.Retried {
		t.Fatalf("front-door identity broken: sum(replica submitted)=%d, front+retried=%d", sum, st.FrontSubmitted+st.Retried)
	}
	if remoteServed == 0 {
		t.Fatal("round-robin never routed to the remote member")
	}
	// The remote member's part is its server's: the histogram /statsz
	// carries for the tenant, hence non-empty after serving.
	if r.Snapshot().Tenants[0].Latency.Count() == 0 {
		t.Fatal("remote replica's latency histogram is empty after serving")
	}

	// Remove folds the remote member's counters into the fleet's retired
	// totals: the merged ledger must not regress.
	if err := f.Remove(remoteID); err != nil {
		t.Fatalf("remove remote: %v", err)
	}
	after := f.Stats()
	if after.Completed != n {
		t.Fatalf("fleet completed %d after removing remote, want %d (counters must fold, not vanish)", after.Completed, n)
	}
}

// TestRemoteHealthEjection kills the remote process mid-serve and checks
// the fleet's health machinery works over the wire: the connect error
// demotes the member instantly, the enabled one-retry re-routes the caught
// query to the survivor, and every subsequent submit succeeds locally.
func TestRemoteHealthEjection(t *testing.T) {
	rsvc, rsrv, addr := startRemoteServer(t, 1)
	f := newLocalFleet(t, 2)
	r, err := newRemoteReplica(addr, nil, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r)
	if err != nil {
		t.Fatal(err)
	}
	f.SetRetry(true)

	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, _, err := f.Submit(ctx, live.Query{Candidates: 32}); err != nil {
			t.Fatalf("warmup submit %d: %v", i, err)
		}
	}
	// The merged view must hold the remote's own ledger before the crash:
	// the last body that landed is what the fleet keeps serving for the
	// member once the process is gone. Check it rather than assume it.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var folded uint64
		for _, rs := range f.Stats().Replicas {
			if rs.ID == remoteID {
				folded = rs.Submitted
			}
		}
		own := rsvc.Stats().Submitted
		if folded == own {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remote member folded %d submitted before the crash, its service counted %d", folded, own)
		}
	}

	// Crash the remote process: sever the listener and stop the service.
	rsrv.Close()
	rsvc.Close()

	// Every query from here must succeed: one may be caught mid-crash, and
	// the fleet's one-retry re-routes it to the healthy local member.
	for i := 0; i < 20; i++ {
		if _, _, err := f.Submit(ctx, live.Query{Candidates: 32}); err != nil {
			t.Fatalf("submit %d after remote crash: %v", i, err)
		}
	}
	if !r.Failed() {
		t.Fatal("remote replica not marked failed after its process died")
	}
	st := f.Stats()
	if st.Healthy != 1 {
		t.Fatalf("fleet healthy=%d after remote crash, want 1", st.Healthy)
	}
	var sum uint64
	for _, rs := range st.Replicas {
		sum += rs.Submitted
	}
	// Across a crash the front-door identity holds up to the ambiguous
	// failure class: a connection severed mid-exchange may or may not have
	// reached the dead server's ledger, and neither side can prove which.
	// Provably-undelivered attempts (connection refused) are conserved by
	// the wireLost overlay; the deficit can never exceed the resets the
	// wire observed, and the merged view must never over-count.
	front := st.FrontSubmitted + st.Retried
	if sum > front {
		t.Fatalf("merged ledger invented queries: sum=%d > front+retried=%d", sum, front)
	}
	if deficit := front - sum; deficit > r.client.Stats().Resets {
		t.Fatalf("front-door deficit %d exceeds the %d ambiguous resets (front=%d retried=%d sum=%d)",
			deficit, r.client.Stats().Resets, st.FrontSubmitted, st.Retried, sum)
	}
}

// TestRemoteWireLostIdentity drives a fleet whose remote member sits
// behind a dropping wire and checks the conservation overlay: submits that
// provably never reached the server count as Submitted+Failed on the
// remote's ledger, keeping both the front-door identity and per-replica
// conservation exact over a lossy network.
func TestRemoteWireLostIdentity(t *testing.T) {
	_, _, addr := startRemoteServer(t, 1)
	f := newLocalFleet(t, 2)

	nc := NetChaos{Drop: 0.3, Seed: 5}
	// A quick probe period restores the member soon after a drop demotes it.
	r, err := newRemoteReplica(addr, nc.Transport(nil), 15*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r)
	if err != nil {
		t.Fatal(err)
	}
	f.SetRetry(true)

	ctx := context.Background()
	const n = 120
	for i := 0; i < n; i++ {
		// A drop on both the first attempt and the retry fails the query at
		// the front door; that arm is part of the ledger too.
		f.Submit(ctx, live.Query{Candidates: 24})
		if i%10 == 9 {
			// Give the prober a chance to restore a demoted remote so the
			// dropping wire keeps seeing traffic.
			time.Sleep(20 * time.Millisecond)
		}
	}

	// The verdict is read through the wire under test: a /statsz read the
	// chaos drops leaves the remote serving the last body that landed (by
	// design), which can predate the final submits. Every poll reads again;
	// the identity must hold once a read lands.
	var st fleet.Stats
	var sum uint64
	var remote fleet.ReplicaStats
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, sum = f.Stats(), 0
		for _, rs := range st.Replicas {
			sum += rs.Submitted
			if rs.ID == remoteID {
				remote = rs
			}
		}
		if sum == st.FrontSubmitted+st.Retried || time.Now().After(deadline) {
			break
		}
	}
	if sum != st.FrontSubmitted+st.Retried {
		t.Fatalf("front-door identity broken over a dropping wire: sum=%d front+retried=%d (front=%d retried=%d)",
			sum, st.FrontSubmitted+st.Retried, st.FrontSubmitted, st.Retried)
	}
	// Per-replica conservation on the remote ledger, wire losses included.
	// (remote.Stats.Failed is the embedded counter; ReplicaStats.Failed the
	// health bool shadowing it.)
	rst := remote.Stats
	if !rst.Conserved() {
		t.Fatalf("remote replica conservation broken: %+v", rst.Ledger)
	}
	if cs := r.client.Stats(); cs.ConnectErrors == 0 {
		t.Fatal("dropping wire injected no connect errors; the test exercised nothing")
	} else if rst.Failed == 0 {
		t.Fatalf("remote saw %d connect errors but its ledger folded none as Failed", cs.ConnectErrors)
	}
}

// TestRemotePartIsItsServers: a remote member's part of a fleet snapshot is
// its server's, so the fleet folds it like a local one. The remote server
// has served queries directly, some of them shed on an expired deadline
// (Submitted, never admitted), some offloaded. Before and after the fleet
// routes traffic, the replicas' windows add up to the fleet's, the fleet
// ledger is the sum of the tenant ledgers, and every GPUQueryShare is its
// own ledger's; once quiet, the member reports its server's own p95, window
// and ledger.
func TestRemotePartIsItsServers(t *testing.T) {
	rsvc, addr := startGPUServer(t)
	ctx := context.Background()
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	for i := 0; i < 12; i++ {
		qctx, size := ctx, []int{400, 32}[i%2]
		if i%4 == 3 {
			qctx = expired
		}
		if _, err := rsvc.Submit(qctx, live.Query{Candidates: size}); (err != nil) != (qctx == expired) {
			t.Fatalf("direct query %d: %v", i, err)
		}
	}
	if st := rsvc.Stats(); st.ShedDeadline == 0 || st.GPUQueries == 0 || st.Admitted == st.Submitted {
		t.Fatalf("server ledger %+v: the set-up needs deadline sheds and offloads", st.Ledger)
	}

	f := newLocalFleet(t, 2)
	r, err := NewRemoteReplica(addr)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) fleet.Stats {
		t.Helper()
		st := f.Stats()
		var windows int
		for _, rs := range st.Replicas {
			windows += rs.WindowLen
			if rs.GPUQueryShare != rs.Ledger.GPUQueryShare() {
				t.Errorf("%s: replica %d GPUQueryShare %v, its ledger's %v", when, rs.ID, rs.GPUQueryShare, rs.Ledger.GPUQueryShare())
			}
		}
		if windows != st.WindowLen {
			t.Errorf("%s: replica windows sum to %d samples, the fleet's holds %d", when, windows, st.WindowLen)
		}
		var tenants live.Ledger
		for _, ts := range st.Tenants {
			tenants = tenants.Add(ts.Ledger)
			if ts.GPUQueryShare != ts.Ledger.GPUQueryShare() {
				t.Errorf("%s: tenant %s GPUQueryShare %v, its ledger's %v", when, ts.Tenant, ts.GPUQueryShare, ts.Ledger.GPUQueryShare())
			}
		}
		if tenants != st.Ledger {
			t.Errorf("%s: fleet ledger %+v != tenant sum %+v", when, st.Ledger, tenants)
		}
		if st.GPUQueryShare != st.Ledger.GPUQueryShare() {
			t.Errorf("%s: fleet GPUQueryShare %v, its ledger's %v", when, st.GPUQueryShare, st.Ledger.GPUQueryShare())
		}
		return st
	}
	check("before routing")
	for i := 0; i < 20; i++ {
		if _, _, err := f.Submit(ctx, live.Query{Candidates: []int{400, 32}[i%2]}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	st, own := check("after routing"), rsvc.Stats()
	for _, rs := range st.Replicas {
		if rs.ID == remoteID && (rs.P95 != own.P95 || rs.WindowLen != own.WindowLen || rs.Ledger != own.Ledger) {
			t.Errorf("remote member reports p95 %v over %d samples, ledger %+v; its server %v over %d, ledger %+v",
				rs.P95, rs.WindowLen, rs.Ledger, own.P95, own.WindowLen, own.Ledger)
		}
	}
}

// TestSizeAwareRoutesToRemoteGPU: size-aware routing steers by a remote
// member's offload threshold as its /statsz body reports it, so a remote
// GPU member beside a local CPU-only one serves, offloaded, the queries it
// would offload, and the local member the small ones.
func TestSizeAwareRoutesToRemoteGPU(t *testing.T) {
	_, addr := startGPUServer(t)
	p, err := fleet.ParsePolicy("size-aware")
	if err != nil {
		t.Fatal(err)
	}
	f := newLocalFleetRouting(t, 2, p)
	r, err := NewRemoteReplica(addr)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reply, id, err := f.Submit(ctx, live.Query{Candidates: 256})
	if err != nil {
		t.Fatal(err)
	}
	if id != remoteID || !reply.Offloaded {
		t.Errorf("256-item query served by replica %d (offloaded %v), want the remote GPU member %d, offloaded", id, reply.Offloaded, remoteID)
	}
	if _, id, err = f.Submit(ctx, live.Query{Candidates: 8}); err != nil {
		t.Fatal(err)
	} else if id == remoteID {
		t.Errorf("8-item query served by the remote GPU member, want the local CPU-only member")
	}
}

// TestRemoteDrainRefusalIsCounted: a remote member whose server is draining
// refuses a query before its backend's ledger counts it. The member counts
// the refusal in its overlay instead, so with the fleet's retry off or on
// the front door balances against the ledger and the ledger conserves.
func TestRemoteDrainRefusalIsCounted(t *testing.T) {
	for _, retry := range []bool{false, true} {
		t.Run(fmt.Sprintf("retry=%v", retry), func(t *testing.T) {
			_, srv, addr := startRemoteServer(t, 1)
			f := newLocalFleet(t, 2)
			r, err := NewRemoteReplica(addr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.AddBackend(r); err != nil {
				t.Fatal(err)
			}
			if err := f.Drain(0); err != nil {
				t.Fatal(err)
			}
			f.SetRetry(retry)
			srv.draining.Store(true)
			if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 32}); err == nil {
				t.Fatal("a query routed only to a draining server was served")
			}
			st := f.Stats()
			if !st.Balances(st.Ledger) || !st.Conserved() {
				t.Errorf("front door %+v against ledger %+v: want it balanced and conserved", st.FrontDoor, st.Ledger)
			}
		})
	}
}

// TestNewRemoteReplicaRefusesServerWithoutHistogram: a server whose /statsz
// carries no per-tenant latency histogram (one built before it did) cannot
// be folded like any other member, so joining it is refused by name.
func TestNewRemoteReplicaRefusesServerWithoutHistogram(t *testing.T) {
	doc, err := os.ReadFile("testdata/statsz_single.json")
	if err != nil {
		t.Fatal(err)
	}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc)
	}))
	defer old.Close()
	if _, err := NewRemoteReplica(old.URL); err == nil || !strings.Contains(err.Error(), "latency histogram") {
		t.Fatalf("joining a server without histograms: got %v, want an error naming the missing latency histogram", err)
	}
}

// TestNewRemoteReplicaUnreachable: joining a dead address is a
// misconfiguration, reported at construction — not a fault to route
// around.
func TestNewRemoteReplicaUnreachable(t *testing.T) {
	if _, err := NewRemoteReplica("127.0.0.1:1"); err == nil {
		t.Fatal("want an error joining an unreachable server")
	}
}

// TestRemoteGPUMemberIsAGPUMember: a remote member's accelerator is read
// from the snapshot it joins with, as its tenants and speed are, so the
// fleet reports a remote GPU member as one — and the fleet-wide threshold as
// that member's — after it has served an offloaded query.
func TestRemoteGPUMemberIsAGPUMember(t *testing.T) {
	_, addr := startGPUServer(t)
	f := newLocalFleetRouting(t, 2, fleet.NewSizeAware())
	r, err := NewRemoteReplica(addr)
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 256}); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	for _, rs := range st.Replicas {
		if rs.HasGPU != (rs.ID == remoteID) {
			t.Errorf("replica %d HasGPU = %v, want it only on the remote GPU member %d", rs.ID, rs.HasGPU, remoteID)
		}
	}
	if st.GPUThreshold != 100 || st.GPUQueries != 1 {
		t.Errorf("fleet GPUThreshold %d with %d GPU queries, want the remote member's 100 with 1", st.GPUThreshold, st.GPUQueries)
	}
}

// stallingStatsz is a transport whose /statsz stops answering while stalled:
// a read waits for release or its own deadline.
type stallingStatsz struct {
	stalled atomic.Bool
	release chan struct{}
}

func (s *stallingStatsz) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.stalled.Load() && req.URL.Path == "/statsz" {
		select {
		case <-s.release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestStatsDoesNotStallRouting: a fleet reads its members' snapshots off
// the routing lock. While Stats waits on a remote member whose /statsz has
// stopped answering, and a Drain waits for the lock, a Submit still routes
// at once; read under the lock, the fetch would hold the Drain, and the
// Submit queued behind it, for up to the fetch's 2 s bound.
func TestStatsDoesNotStallRouting(t *testing.T) {
	_, _, addr := startRemoteServer(t, 1)
	f := newLocalFleet(t, 2)
	tr := &stallingStatsz{release: make(chan struct{})}
	r, err := newRemoteReplica(addr, tr, 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddBackend(r); err != nil {
		t.Fatal(err)
	}
	third, err := f.Add(live.Config{Model: testModel(t), Workers: 1, BatchSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr.stalled.Store(true)
	defer close(tr.release)
	go f.Stats()
	time.Sleep(50 * time.Millisecond) // Stats reaches the stalled read
	drained := make(chan error, 1)
	go func() { drained <- f.Drain(third) }()
	time.Sleep(50 * time.Millisecond) // Drain waits for the lock, if Stats holds it
	start := time.Now()
	if _, _, err := f.Submit(context.Background(), live.Query{Candidates: 8}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("an 8-item Submit took %v while Stats read a stalled member", took)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}
