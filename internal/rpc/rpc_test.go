package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// testModel builds a small, fast zoo model shared across wire tests.
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

func newLiveService(t testing.TB, cfg live.Config) *live.Service {
	t.Helper()
	svc, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func startServer(t testing.TB, b fleet.Backend, cfg ServerConfig) *Server {
	t.Helper()
	srv := NewServer(b, cfg)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func newTestClient(t testing.TB, srv *Server, cfg ClientConfig) *Client {
	t.Helper()
	c, err := NewClient("http://"+srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// unbudgeted lifts c's client-wide retry budget, so every eligible failure
// is retried up to MaxAttempts.
func unbudgeted(c *Client) *Client {
	c.unbudgeted = true
	return c
}

// stubBackend is a scriptable fleet.Backend for deterministic wire tests:
// the submit hook sees a 1-based call number, so tests can fail the first
// k calls, delay the nth, and so on. By default it hosts one tenant named
// after testModel's model, as a single-model NCF service does.
type stubBackend struct {
	tenants []string
	submit  func(n uint64, ctx context.Context, q live.Query) (live.Reply, error)
	n       atomic.Uint64
	snaps   atomic.Uint64 // Snapshot calls
	failed  atomic.Bool
}

func newStub(submit func(n uint64, ctx context.Context, q live.Query) (live.Reply, error)) *stubBackend {
	return &stubBackend{tenants: []string{"NCF"}, submit: submit}
}

func okReply() (live.Reply, error) {
	return live.Reply{Latency: time.Millisecond, BatchSize: 16}, nil
}

func (s *stubBackend) Submit(ctx context.Context, q live.Query) (live.Reply, error) {
	return s.submit(s.n.Add(1), ctx, q)
}

// Snapshot counts its calls: the cost tests assert how many reads a request
// takes.
func (s *stubBackend) Snapshot() live.Snapshot {
	s.snaps.Add(1)
	snap := live.Snapshot{Tenants: make([]live.TenantSnapshot, len(s.tenants)), Scale: 1}
	for i, name := range s.tenants {
		snap.Tenants[i].Stats = live.Stats{
			Tenant:    name,
			Ledger:    live.Ledger{Submitted: s.n.Load()},
			BatchSize: 16,
			P50:       5 * time.Millisecond,
		}
	}
	return snap
}
func (s *stubBackend) Failed() bool { return s.failed.Load() }
func (s *stubBackend) Close() error { return nil }

// --- end-to-end round trips over a real live.Service ---

// TestRoundTrip serves a real live.Service over the wire and checks a
// recommend round trip end to end: ranked recs come back, the server-side
// ledger counts the query, and the wire counters agree.
func TestRoundTrip(t *testing.T) {
	m := testModel(t)
	svc := newLiveService(t, live.Config{Model: m, Workers: 1, BatchSize: 16, Seed: 1})
	srv := startServer(t, svc, ServerConfig{Model: "NCF"})
	c := newTestClient(t, srv, ClientConfig{})

	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.call(ctx, PathReady, nil); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp, err := c.Recommend(ctx, RecommendRequest{Candidates: 64, TopN: 3})
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if len(resp.Recs) != 3 {
		t.Fatalf("got %d recs, want 3", len(resp.Recs))
	}
	for _, rec := range resp.Recs {
		if rec.CTR < 0 || rec.CTR > 1 {
			t.Fatalf("CTR %v outside [0, 1]", rec.CTR)
		}
	}
	if resp.Batch <= 0 {
		t.Fatalf("batch %d, want > 0", resp.Batch)
	}

	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	if st.Model != "NCF" {
		t.Fatalf("statsz model %q, want NCF", st.Model)
	}
	if st.Service.Submitted != 1 || st.Service.Completed != 1 {
		t.Fatalf("server ledger submitted=%d completed=%d, want 1/1", st.Service.Submitted, st.Service.Completed)
	}
	if st.Server.Requests != 1 || st.Server.OK != 1 {
		t.Fatalf("wire counters %+v, want 1 request / 1 ok", st.Server)
	}
}

// TestTenantAddressing checks wire tenant names map onto the service's
// tenant indices, and unknown names are refused without touching a ledger.
func TestTenantAddressing(t *testing.T) {
	cfg := live.Config{
		Workers: 1, Seed: 1,
		Tenants: []live.TenantConfig{
			{Name: "search", Model: testModel(t), BatchSize: 16},
			{Name: "ads", Model: testModel(t), BatchSize: 16},
		},
	}
	svc := newLiveService(t, cfg)
	srv := startServer(t, svc, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{})

	ctx := context.Background()
	resp, err := c.Recommend(ctx, RecommendRequest{Candidates: 32, Tenant: "ads"})
	if err != nil {
		t.Fatalf("recommend: %v", err)
	}
	if resp.Tenant != "ads" {
		t.Fatalf("served tenant %q, want ads", resp.Tenant)
	}
	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(st.Tenants); n != 2 {
		t.Fatalf("statsz has %d tenants, want 2", n)
	}
	if st.Tenants[1].Name != "ads" || st.Tenants[1].Stats.Submitted != 1 {
		t.Fatalf("ads ledger %+v, want 1 submitted", st.Tenants[1].Stats)
	}
	if st.Tenants[0].Stats.Submitted != 0 {
		t.Fatalf("search ledger has %d submitted, want 0", st.Tenants[0].Stats.Submitted)
	}

	_, err = c.Recommend(ctx, RecommendRequest{Candidates: 32, Tenant: "nope"})
	var re *Error
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Code != CodeBadRequest {
		t.Fatalf("unknown tenant: got %v, want 400 bad_request", err)
	}
}

// TestSingleModelTenantAddressing: a single-model server's one tenant is
// named after its model, so a request may address it by that name and the
// reply echoes it; any other name is still refused.
func TestSingleModelTenantAddressing(t *testing.T) {
	svc := newLiveService(t, live.Config{Model: testModel(t), Workers: 1, BatchSize: 16, Seed: 1})
	srv := startServer(t, svc, ServerConfig{Model: "NCF"})
	c := newTestClient(t, srv, ClientConfig{})

	ctx := context.Background()
	for _, tenant := range []string{"NCF", ""} {
		resp, err := c.Recommend(ctx, RecommendRequest{Candidates: 32, Tenant: tenant})
		if err != nil {
			t.Fatalf("recommend to %q: %v", tenant, err)
		}
		if resp.Tenant != "NCF" {
			t.Errorf("request to %q served by tenant %q, want NCF", tenant, resp.Tenant)
		}
	}
	_, err := c.Recommend(ctx, RecommendRequest{Candidates: 32, Tenant: "WnD"})
	var re *Error
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Code != CodeBadRequest {
		t.Fatalf("unknown tenant: got %v, want 400 bad_request", err)
	}
	if st := svc.Stats(); st.Submitted != 2 {
		t.Errorf("service ledger submitted %d, want 2 (the refused request reaches no ledger)", st.Submitted)
	}
}

// TestExpiredDeadlineShedsServerSide is the headline deadline semantic: a
// request whose propagated absolute deadline has already passed when it
// arrives is shed by the live tier's ledger (ShedDeadline) without
// consuming a forward pass — Completed stays zero — and answers 504.
func TestExpiredDeadlineShedsServerSide(t *testing.T) {
	m := testModel(t)
	svc := newLiveService(t, live.Config{Model: m, Workers: 1, BatchSize: 16, Seed: 1})
	srv := startServer(t, svc, ServerConfig{})

	req, err := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+PathRecommend,
		bytes.NewReader([]byte(`{"candidates":64}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	// The deadline expired 10ms ago in "transit".
	req.Header.Set(HeaderDeadlineUnixUs, strconv.FormatInt(time.Now().Add(-10*time.Millisecond).UnixMicro(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}

	st := svc.Stats()
	if st.Submitted != 1 || st.ShedDeadline != 1 || st.Completed != 0 {
		t.Fatalf("ledger submitted=%d shedDeadline=%d completed=%d, want 1/1/0 (no forward pass)",
			st.Submitted, st.ShedDeadline, st.Completed)
	}
	if srv.Counters().Deadline != 1 {
		t.Fatalf("wire deadline counter %d, want 1", srv.Counters().Deadline)
	}
}

// TestWireDeadline covers the header precedence: absolute wins when
// plausible, implausibly stale absolute values (clock skew) fall back to
// the relative budget, and no headers means no deadline.
func TestWireDeadline(t *testing.T) {
	now := time.Now()
	h := http.Header{}
	if _, ok := wireDeadline(h, now); ok {
		t.Fatal("no headers: want no deadline")
	}
	h.Set(HeaderDeadlineUnixUs, strconv.FormatInt(now.Add(50*time.Millisecond).UnixMicro(), 10))
	d, ok := wireDeadline(h, now)
	if !ok || d.Sub(now).Round(time.Millisecond) != 50*time.Millisecond {
		t.Fatalf("absolute deadline: got %v ok=%v", d.Sub(now), ok)
	}
	// Stale beyond the skew guard: the absolute form is distrusted and the
	// relative budget takes over.
	h.Set(HeaderDeadlineUnixUs, strconv.FormatInt(now.Add(-2*time.Hour).UnixMicro(), 10))
	h.Set(HeaderTimeoutUs, "20000")
	d, ok = wireDeadline(h, now)
	if !ok || d.Sub(now).Round(time.Millisecond) != 20*time.Millisecond {
		t.Fatalf("skewed absolute: got %v ok=%v, want 20ms relative fallback", d.Sub(now), ok)
	}
}

// --- failure taxonomy ---

// TestErrorMapping drives each backend sentinel through the server and
// asserts the wire code, HTTP status, and that the client-side error
// unwraps back to the exact in-process sentinel.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		status  int
		code    string
		unwraps error
	}{
		{"overloaded", live.ErrOverloaded, http.StatusServiceUnavailable, CodeOverloaded, live.ErrOverloaded},
		{"shutdown", live.ErrShutdown, http.StatusServiceUnavailable, CodeDown, live.ErrReplicaDown},
		{"closed", live.ErrClosed, http.StatusServiceUnavailable, CodeDraining, live.ErrReplicaDown},
		{"down", live.ErrReplicaDown, http.StatusServiceUnavailable, CodeDown, live.ErrReplicaDown},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, CodeDeadline, context.DeadlineExceeded},
		{"validation", errors.New("live: query size 0 outside [1, 4096]"), http.StatusBadRequest, CodeBadRequest, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
				return live.Reply{}, tc.err
			})
			srv := startServer(t, stub, ServerConfig{})
			c := newTestClient(t, srv, ClientConfig{MaxAttempts: 1})
			_, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32})
			var re *Error
			if !errors.As(err, &re) {
				t.Fatalf("got %v, want *Error", err)
			}
			if re.Status != tc.status || re.Code != tc.code {
				t.Fatalf("got %d/%s, want %d/%s", re.Status, re.Code, tc.status, tc.code)
			}
			if tc.unwraps != nil && !errors.Is(err, tc.unwraps) {
				t.Fatalf("error %v does not unwrap to %v", err, tc.unwraps)
			}
		})
	}
}

// TestOverloadedCarriesRetryAfter checks the 503 backoff hint rides both
// headers and the body, derived from the backend's queue depth.
func TestOverloadedCarriesRetryAfter(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
		return live.Reply{}, live.ErrOverloaded
	})
	srv := startServer(t, stub, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{MaxAttempts: 1})
	_, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32})
	var re *Error
	if !errors.As(err, &re) || re.Code != CodeOverloaded {
		t.Fatalf("got %v, want overloaded", err)
	}
	if re.RetryAfterMs <= 0 {
		t.Fatalf("retry-after hint %dms, want > 0", re.RetryAfterMs)
	}
	if st := c.Stats(); st.Overloaded != 1 {
		t.Fatalf("client overloaded counter %d, want 1", st.Overloaded)
	}
}

// --- graceful drain ---

// TestDrainFinishesInFlight starts a slow request, begins draining, and
// checks the SIGTERM contract: new requests refuse with 503/draining,
// probes flip unhealthy, the in-flight request still completes, and Drain
// returns only after it has.
func TestDrainFinishesInFlight(t *testing.T) {
	release := make(chan struct{})
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return live.Reply{}, ctx.Err()
		}
		return okReply()
	})
	srv := startServer(t, stub, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{MaxAttempts: 1})
	ctx := context.Background()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Recommend(ctx, RecommendRequest{Candidates: 32})
		slowDone <- err
	}()
	// Wait until the slow request is in the handler.
	deadline := time.Now().Add(2 * time.Second)
	for stub.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(context.Background()) }()
	// Draining flips readiness and refuses new work while the listener is
	// still up for the in-flight request.
	deadline = time.Now().Add(2 * time.Second)
	for c.call(ctx, PathReady, nil) == nil {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to draining")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := c.Recommend(ctx, RecommendRequest{Candidates: 32})
	var re *Error
	if !errors.As(err, &re) || re.Code != CodeDraining || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("recommend during drain: got %v, want 503 draining", err)
	}
	if !errors.Is(err, live.ErrReplicaDown) {
		t.Fatalf("draining error %v should unwrap to ErrReplicaDown for routing layers", err)
	}
	if c.Healthz(ctx) == nil {
		t.Fatal("healthz should fail while draining")
	}

	select {
	case err := <-drainDone:
		t.Fatalf("drain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	cnt := srv.Counters()
	if cnt.OK != 1 || cnt.Draining < 1 {
		t.Fatalf("counters %+v, want 1 ok and >=1 draining", cnt)
	}
}

// --- client retry policy ---

// flakyTransport fails the first `failures` round trips with a dial error,
// then delegates.
type flakyTransport struct {
	next      http.RoundTripper
	remaining atomic.Int64
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("injected refuse")}
	}
	return f.next.RoundTrip(req)
}

// TestRetryOnConnectError checks connect failures — provably before
// delivery — are retried with backoff until MaxAttempts.
func TestRetryOnConnectError(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	srv := startServer(t, stub, ServerConfig{})
	ft := &flakyTransport{next: http.DefaultTransport}
	ft.remaining.Store(2)
	c := unbudgeted(newTestClient(t, srv, ClientConfig{
		MaxAttempts: 3,
		Transport:   ft,
	}))
	if _, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32}); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.ConnectErrors != 2 || st.Successes != 1 {
		t.Fatalf("stats %+v, want 3 attempts / 2 retries / 2 connect errors / 1 success", st)
	}
}

// TestRetryOnOverloaded checks 503 refusals — the server declined before
// doing work — are retried.
func TestRetryOnOverloaded(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
		if n <= 2 {
			return live.Reply{}, live.ErrOverloaded
		}
		return okReply()
	})
	srv := startServer(t, stub, ServerConfig{})
	c := unbudgeted(newTestClient(t, srv, ClientConfig{MaxAttempts: 3}))
	if _, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32}); err != nil {
		t.Fatalf("recommend: %v", err)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Overloaded != 2 {
		t.Fatalf("stats %+v, want 2 retries / 2 overloaded", st)
	}
}

// resetTransport always severs the exchange after delivery.
type resetTransport struct{ next http.RoundTripper }

func (rt *resetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	return nil, &net.OpError{Op: "read", Net: "tcp", Err: errors.New("injected reset")}
}

// TestNoRetryOnReset is the other half of the retry taxonomy: a connection
// that dies after delivery is ambiguous (the server did the work), so the
// client must NOT retry it — even with attempts and budget to spare.
func TestNoRetryOnReset(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	srv := startServer(t, stub, ServerConfig{})
	c := unbudgeted(newTestClient(t, srv, ClientConfig{
		MaxAttempts: 3,
		Transport:   &resetTransport{next: http.DefaultTransport},
	}))
	_, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32})
	if err == nil {
		t.Fatal("want an error through a resetting transport")
	}
	if !errors.Is(err, live.ErrReplicaDown) {
		t.Fatalf("reset error %v should unwrap to ErrReplicaDown", err)
	}
	st := c.Stats()
	if st.Attempts != 1 || st.Retries != 0 || st.Resets != 1 {
		t.Fatalf("stats %+v, want exactly 1 attempt, 0 retries, 1 reset", st)
	}
	// The server executed the query: the ambiguity is real, not theoretical.
	if stub.n.Load() != 1 {
		t.Fatalf("backend saw %d submits, want 1", stub.n.Load())
	}
}

// TestRetryBudget checks the client-wide budget turns a retry storm into a
// trickle: 10 failing requests at 0.2 earn exactly 2 retries.
func TestRetryBudget(t *testing.T) {
	ft := &flakyTransport{next: http.DefaultTransport}
	ft.remaining.Store(1 << 30) // never recovers
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	srv := startServer(t, stub, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{
		MaxAttempts: 3,
		Transport:   ft,
	})
	for i := 0; i < 10; i++ {
		c.Recommend(context.Background(), RecommendRequest{Candidates: 32})
	}
	st := c.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries %d, want exactly 2 (10 requests × 0.2 budget)", st.Retries)
	}
	if st.BudgetDenied == 0 {
		t.Fatal("budget denied 0, want > 0")
	}
}

// --- hedging ---

// TestHedgeCutsTail primes the latency window with fast requests, then
// makes one primary pathologically slow: the hedge fires at the observed
// percentile, wins the race, and the call returns far sooner than the
// stalled primary would have. The slow attempt is picked by identity, not
// by arrival order: the priming requests are sequential and never hedged,
// so the slowN-th arrival without the hedge mark is the primary of request
// slowN even when a descheduled primary lets its hedge reach the server
// first.
func TestHedgeCutsTail(t *testing.T) {
	const slowN = hedgeMinSamples + 1
	type slowKey struct{}
	inner := NewServer(newStub(func(_ uint64, ctx context.Context, _ live.Query) (live.Reply, error) {
		if ctx.Value(slowKey{}) != nil {
			select {
			case <-time.After(2 * time.Second):
			case <-ctx.Done():
				return live.Reply{}, ctx.Err()
			}
		}
		return okReply()
	}), ServerConfig{}).Handler()
	var primaries atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathRecommend && r.Header.Get(headerHedge) == "" && primaries.Add(1) == slowN {
			r = r.WithContext(context.WithValue(r.Context(), slowKey{}, true))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL, ClientConfig{MaxAttempts: 1, HedgePercentile: 90})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	for i := 0; i < hedgeMinSamples; i++ {
		if _, err := c.Recommend(ctx, RecommendRequest{Candidates: 32}); err != nil {
			t.Fatalf("priming request %d: %v", i, err)
		}
	}
	start := time.Now()
	if _, err := c.Recommend(ctx, RecommendRequest{Candidates: 32}); err != nil {
		t.Fatalf("hedged request: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged request took %v — the hedge did not cut the tail", elapsed)
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v, want 1 hedge / 1 hedge win", st)
	}
}

// --- network chaos ---

func TestParseNetChaos(t *testing.T) {
	good := []struct {
		spec string
		want NetChaos
	}{
		{"", NetChaos{}},
		{"none", NetChaos{}},
		{"netdelay:5ms", NetChaos{Delay: 5 * time.Millisecond}},
		{"netdrop:0.1,netreset:0.05", NetChaos{Drop: 0.1, Reset: 0.05}},
		{"netdelay:1ms, netdrop:1, netseed:7", NetChaos{Delay: time.Millisecond, Drop: 1, Seed: 7}},
		{"netdrop=0.5", NetChaos{Drop: 0.5}},
	}
	for _, tc := range good {
		got, err := ParseNetChaos(tc.spec)
		if err != nil {
			t.Fatalf("ParseNetChaos(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseNetChaos(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	bad := []string{
		"netdelay:-5ms", "netdelay:fast", "netdrop:1.5", "netreset:-0.1",
		"bogus:1", "netdrop", "netseed:x",
		"netseed:7", // seed alone injects nothing
	}
	for _, spec := range bad {
		if _, err := ParseNetChaos(spec); err == nil {
			t.Fatalf("ParseNetChaos(%q) accepted, want error", spec)
		}
	}
}

// TestNetChaosDropIsRetryable checks an injected drop is shaped as a
// connect error — the retryable class — and a full-drop wire eventually
// exhausts attempts with ErrReplicaDown.
func TestNetChaosDropIsRetryable(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	srv := startServer(t, stub, ServerConfig{})
	nc := NetChaos{Drop: 1, Seed: 3}
	c := unbudgeted(newTestClient(t, srv, ClientConfig{
		MaxAttempts: 2,
		Transport:   nc.Transport(nil),
	}))
	_, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32})
	if !errors.Is(err, live.ErrReplicaDown) {
		t.Fatalf("got %v, want ErrReplicaDown", err)
	}
	st := c.Stats()
	if st.Attempts != 2 || st.Retries != 1 || st.ConnectErrors != 2 {
		t.Fatalf("stats %+v, want 2 attempts / 1 retry / 2 connect errors", st)
	}
	if stub.n.Load() != 0 {
		t.Fatalf("backend saw %d submits through a 100%%-drop wire, want 0", stub.n.Load())
	}
}

// TestNetChaosResetDelivers checks an injected reset happens AFTER
// delivery: the server executes the query, the client sees an
// unretryable reset.
func TestNetChaosResetDelivers(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	srv := startServer(t, stub, ServerConfig{})
	nc := NetChaos{Reset: 1, Seed: 3}
	c := unbudgeted(newTestClient(t, srv, ClientConfig{
		MaxAttempts: 3,
		Transport:   nc.Transport(nil),
	}))
	_, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32})
	if err == nil {
		t.Fatal("want an error through a resetting wire")
	}
	st := c.Stats()
	if st.Attempts != 1 || st.Resets != 1 || st.Retries != 0 {
		t.Fatalf("stats %+v, want 1 attempt / 1 reset / 0 retries", st)
	}
	if stub.n.Load() != 1 {
		t.Fatalf("backend saw %d submits, want 1 (reset strikes after delivery)", stub.n.Load())
	}
}

// --- what a scrape costs, in reads ---

// TestStatszTakesOneSnapshot pins the cost of a /statsz request without a
// clock: exactly one Snapshot of the served backend, and when that backend
// is a fleet viewed through AsBackend, exactly one of each member — the
// service aggregate in the body is the fold of the tenants beside it, not a
// second read.
func TestStatszTakesOneSnapshot(t *testing.T) {
	ok := func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() }
	scrape := func(srv *Server) StatsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathStats, nil))
		var resp StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("/statsz: status %d, decode error %v", rec.Code, err)
		}
		return resp
	}

	stub := newStub(ok)
	stub.tenants = []string{"search", "ads"}
	srv := NewServer(stub, ServerConfig{})
	stub.Submit(context.Background(), live.Query{Candidates: 8})
	stub.snaps.Store(0)
	resp := scrape(srv)
	if got := stub.snaps.Load(); got != 1 {
		t.Errorf("/statsz took %d snapshots of the backend, want 1", got)
	}
	if len(resp.Tenants) != 2 || resp.Service.Submitted != resp.Tenants[0].Stats.Submitted+resp.Tenants[1].Stats.Submitted {
		t.Errorf("service ledger is not the sum of the tenants in the same body: %+v", resp)
	}

	f := newLocalFleet(t, 1)
	members := []*stubBackend{newStub(ok), newStub(ok)}
	for _, m := range members {
		if _, err := f.AddBackend(m); err != nil {
			t.Fatal(err)
		}
	}
	fsrv := NewServer(f.AsBackend(), ServerConfig{})
	for _, m := range members {
		m.snaps.Store(0)
	}
	scrape(fsrv)
	for i, m := range members {
		if got := m.snaps.Load(); got != 1 {
			t.Errorf("/statsz over AsBackend took %d snapshots of member %d, want 1", got, i)
		}
	}
}

// TestHealthzReportsFailedBackend: the prober contract — a failed backend
// answers 503/down on /healthz.
func TestHealthzReportsFailedBackend(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	stub.failed.Store(true)
	srv := startServer(t, stub, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{})
	err := c.Healthz(context.Background())
	var re *Error
	if !errors.As(err, &re) || re.Code != CodeDown {
		t.Fatalf("healthz on failed backend: got %v, want 503 down", err)
	}
}
