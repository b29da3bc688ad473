package rpc

import (
	"context"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
)

// startRemoteServer publishes a fresh single-model live.Service over the
// wire, returning the pieces and the bound address.
func startRemoteServer(t testing.TB, seed int64) (*live.Service, *Server, string) {
	t.Helper()
	svc := newLiveService(t, live.Config{Model: testModel(t), Workers: 1, BatchSize: 16, Seed: seed})
	srv := startServer(t, svc, ServerConfig{})
	return svc, srv, srv.Addr()
}

func newLocalFleet(t testing.TB, seed int64) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New([]live.Config{{Model: testModel(t), Workers: 1, BatchSize: 16, Seed: seed}}, nil)
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

	r, err := NewRemoteReplica(addr, RemoteConfig{StatsTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r, fleet.BackendInfo{})
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
	// The wire is part of the remote replica's latency: its merged window
	// must be client-side RTTs, hence non-empty after serving.
	if len(r.Snapshot().Tenants[0].Samples) == 0 {
		t.Fatal("remote replica's client-side latency window is empty")
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
	r, err := NewRemoteReplica(addr, RemoteConfig{ProbeInterval: 20 * time.Millisecond, StatsTTL: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddBackend(r, fleet.BackendInfo{}); err != nil {
		t.Fatal(err)
	}
	f.SetRetry(true)

	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, _, err := f.Submit(ctx, live.Query{Candidates: 32}); err != nil {
			t.Fatalf("warmup submit %d: %v", i, err)
		}
	}
	// Refresh the merged view while the remote is alive (as any stats loop
	// would): its last-known-good snapshot is what the fleet keeps serving
	// for the member once the process is gone.
	f.Stats()

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
	if deficit := front - sum; deficit > r.Client().Stats().Resets {
		t.Fatalf("front-door deficit %d exceeds the %d ambiguous resets (front=%d retried=%d sum=%d)",
			deficit, r.Client().Stats().Resets, st.FrontSubmitted, st.Retried, sum)
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
	r, err := NewRemoteReplica(addr, RemoteConfig{
		Client:        ClientConfig{Transport: nc.Transport(nil)},
		ProbeInterval: 15 * time.Millisecond, // quick recovery after drop-triggered demotion
		StatsTTL:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	remoteID, err := f.AddBackend(r, fleet.BackendInfo{})
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

	// The verdict is read through the wire under test: a /statsz fetch the
	// chaos drops leaves the remote serving its last good snapshot (by
	// design), which can predate the final submits. StatsTTL is 1 ms, so
	// every poll refetches; the identity must hold once a fetch lands.
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
	if cs := r.Client().Stats(); cs.ConnectErrors == 0 {
		t.Fatal("dropping wire injected no connect errors; the test exercised nothing")
	} else if rst.Failed == 0 {
		t.Fatalf("remote saw %d connect errors but its ledger folded none as Failed", cs.ConnectErrors)
	}
}

// TestNewRemoteReplicaUnreachable: joining a dead address is a
// misconfiguration, reported at construction — not a fault to route
// around.
func TestNewRemoteReplicaUnreachable(t *testing.T) {
	if _, err := NewRemoteReplica("127.0.0.1:1", RemoteConfig{}); err == nil {
		t.Fatal("want an error joining an unreachable server")
	}
}
