package rpc

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
)

// TestWireChaosSoak is the over-the-wire conservation soak: a two-tenant
// service behind the HTTP boundary, driven through a lossy wire (added
// delay, pre-delivery drops, post-delivery resets) with per-query
// deadlines and client retries — and a full server crash + restart on the
// same address mid-run. At the end, the per-tenant disposition identity
//
//	Submitted == Completed + Cancelled + Shed + ShedDeadline + Failed + Abandoned
//
// must hold EXACTLY on the accumulated ledgers of both incarnations: the
// wire may lose responses, but no admitted query may ever leave the
// ledger. Run it with -race; the whole path is concurrent.
func TestWireChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		tenants    = 2
		perPhase   = 150
		queryScale = 24
	)

	newIncarnation := func(seed int64, addr string) (*live.Service, *Server, string) {
		t.Helper()
		adm, err := live.ParseAdmission("queue:16")
		if err != nil {
			t.Fatal(err)
		}
		cfg := live.Config{
			Workers: 2, Seed: seed,
			Tenants: []live.TenantConfig{
				{Name: "search", Model: testModel(t), BatchSize: 16, Admission: adm},
				{Name: "ads", Model: testModel(t), BatchSize: 16, Admission: adm},
			},
		}
		svc, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(svc, ServerConfig{})
		bound, err := srv.Start(addr)
		if err != nil {
			svc.Close()
			t.Fatalf("start on %q: %v", addr, err)
		}
		return svc, srv, bound
	}

	svc, srv, addr := newIncarnation(1, "127.0.0.1:0")

	nc := NetChaos{Delay: time.Millisecond, Drop: 0.05, Reset: 0.05, Seed: 11}
	c, err := NewClient("http://"+addr, ClientConfig{
		MaxAttempts: 3,
		Transport:   nc.Transport(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unbudgeted(c)

	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	names := []string{"search", "ads"}
	dispatch := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
				defer cancel()
				c.Recommend(ctx, RecommendRequest{Candidates: queryScale, Tenant: names[i%tenants]})
			}(i)
		}
	}

	// Phase 1: drive through the lossy wire, then crash the whole server —
	// listener and service — while requests are still in flight.
	dispatch(perPhase)
	time.Sleep(100 * time.Millisecond)
	srv.Close()
	if err := svc.Close(); err != nil {
		t.Fatalf("incarnation-1 close: %v", err)
	}
	var total [tenants]live.Ledger
	var okTotal uint64
	for i, part := range svc.Snapshot().Tenants {
		total[i] = total[i].Add(part.Ledger)
	}
	okTotal += srv.Counters().OK

	// Phase 2: restart on the SAME address while phase-1 stragglers are
	// still retrying toward it, and keep driving.
	svc2, srv2, _ := newIncarnation(2, addr)
	dispatch(perPhase)
	wg.Wait()

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := svc2.Close(); err != nil {
		t.Fatalf("incarnation-2 close: %v", err)
	}
	for i, part := range svc2.Snapshot().Tenants {
		total[i] = total[i].Add(part.Ledger)
	}
	okTotal += srv2.Counters().OK

	// Exact per-tenant conservation across both incarnations: every query a
	// server ledger admitted is in exactly one disposition bucket.
	var submittedTotal uint64
	for i := 0; i < tenants; i++ {
		st := total[i]
		if !st.Conserved() {
			t.Errorf("tenant %s: submitted %d != disposed (completed=%d cancelled=%d shed=%d shedDeadline=%d failed=%d abandoned=%d)",
				names[i], st.Submitted, st.Completed, st.Cancelled, st.Shed, st.ShedDeadline, st.Failed, st.Abandoned)
		}
		submittedTotal += st.Submitted
	}
	if submittedTotal == 0 {
		t.Fatal("no query reached any server ledger — the soak drove nothing")
	}

	// The client's own ledger must be complete too, and its successes can
	// never exceed what the servers actually answered (resets lose
	// responses, they do not invent them).
	st := c.Stats()
	if st.Requests != uint64(2*perPhase) {
		t.Errorf("client requests %d, want %d", st.Requests, 2*perPhase)
	}
	if st.Successes+st.Failures != st.Requests {
		t.Errorf("client ledger leaks: %d successes + %d failures != %d requests",
			st.Successes, st.Failures, st.Requests)
	}
	if st.Successes > okTotal {
		t.Errorf("client saw %d successes but servers answered only %d OKs", st.Successes, okTotal)
	}
	if st.ConnectErrors+st.Resets == 0 {
		t.Error("soak saw no injected wire faults; chaos was vacuous")
	}
	t.Logf("soak: %d submitted server-side, %d server OKs, client %d/%d ok, %d retries, %d connect errors, %d resets",
		submittedTotal, okTotal, st.Successes, st.Requests, st.Retries, st.ConnectErrors, st.Resets)
}
