package rpc

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// idleConns counts the connections c's transport holds idle.
func idleConns(t *testing.T, c *Client) int {
	t.Helper()
	tr, ok := c.hc.Transport.(*transport)
	if !ok {
		t.Fatalf("client transport is %T, want the package's own", c.hc.Transport)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, conns := range tr.idle {
		n += len(conns)
	}
	return n
}

// TestRestartedServerGetsFreshConnection restarts a server on the same port
// under a client holding an idle connection to the old one: the liveness
// check discards the dead connection, so the next request succeeds on one
// attempt. A server that dies after reading a request is still a reset, and
// is not retried.
func TestRestartedServerGetsFreshConnection(t *testing.T) {
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) { return okReply() })
	first := NewServer(stub, ServerConfig{})
	addr, err := first.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(addr, ClientConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	if _, err := c.Recommend(ctx, RecommendRequest{Candidates: 8}); err != nil {
		t.Fatalf("first recommend: %v", err)
	}
	if n := idleConns(t, c); n != 1 {
		t.Fatalf("%d idle connections after one request, want 1", n)
	}
	first.Close()
	second := NewServer(stub, ServerConfig{})
	if _, err := second.Start(addr); err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	t.Cleanup(func() { second.Close() })
	if _, err := c.Recommend(ctx, RecommendRequest{Candidates: 8}); err != nil {
		t.Fatalf("recommend after restart: %v", err)
	}

	var handled atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled.Add(1)
		r.Body.Close()
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dying.Close)
	dc, err := NewClient(dying.URL, ClientConfig{MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dc.Close)
	unbudgeted(dc)
	_, err = dc.Recommend(ctx, RecommendRequest{Candidates: 8})
	var re *Error
	if !errors.As(err, &re) || re.Code != codeReset {
		t.Fatalf("server dying mid-request: got %v, want a reset", err)
	}
	if st := dc.Stats(); st.Attempts != 1 || st.Resets != 1 || handled.Load() != 1 {
		t.Fatalf("stats %+v, handled %d: want 1 attempt, 1 reset, 1 request handled", st, handled.Load())
	}
}

// TestNoReplyCrossesRequests times out a request whose reply the server
// still writes later: the timed-out connection is closed, never pooled, so
// every later request on the client reads its own reply (the stub echoes
// each query's Candidates as ServerUs).
func TestNoReplyCrossesRequests(t *testing.T) {
	release := make(chan struct{})
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
		if q.Candidates == 1 {
			<-release // answers after the client gave up
		}
		return live.Reply{Latency: time.Duration(q.Candidates) * time.Microsecond}, nil
	})
	srv := startServer(t, stub, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{MaxAttempts: 1})
	if _, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 2}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err := c.Recommend(ctx, RecommendRequest{Candidates: 1})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed request: got %v, want a deadline error", err)
	}
	if n := idleConns(t, c); n != 0 {
		t.Fatalf("%d idle connections after the timed-out request, want 0: its connection was pooled", n)
	}
	close(release)
	for cand := 3; cand < 40; cand++ {
		resp, err := c.Recommend(context.Background(), RecommendRequest{Candidates: cand})
		if err != nil {
			t.Fatalf("request %d: %v", cand, err)
		}
		if resp.ServerUs != int64(cand) {
			t.Fatalf("request %d read the reply of request %d", cand, resp.ServerUs)
		}
	}
}

// TestNewClientRefusesOtherSchemes: the transport speaks plain-text HTTP
// only, so a target with any other scheme is refused up front, by name.
func TestNewClientRefusesOtherSchemes(t *testing.T) {
	for _, target := range []string{"https://127.0.0.1:8443", "ftp://host:21", "unix:///tmp/sock"} {
		scheme, _, _ := strings.Cut(target, "://")
		_, err := NewClient(target, ClientConfig{})
		if err == nil || !strings.Contains(err.Error(), `"`+scheme+`"`) {
			t.Errorf("NewClient(%q) = %v, want an error naming scheme %q", target, err, scheme)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, "https://127.0.0.1:8443"+PathHealth, nil)
	if _, err := newTransport().RoundTrip(req); err == nil || !strings.Contains(err.Error(), `"https"`) {
		t.Errorf("transport round trip over https = %v, want an error naming the scheme", err)
	}
}

// TestNewClientRefusesHedgePercentileOutsideRange: a hedge percentile
// outside (0, 100), NaN included, is refused up front; a NaN that got
// through would index the latency window at a negative rank once hedging
// armed.
func TestNewClientRefusesHedgePercentileOutsideRange(t *testing.T) {
	for _, p := range []float64{-1, 100, math.NaN(), math.Inf(1)} {
		if _, err := NewClient("http://127.0.0.1:1", ClientConfig{HedgePercentile: p}); err == nil {
			t.Errorf("NewClient accepted hedge percentile %v", p)
		}
	}
}

// roundTripAllocs is the pinned allocation count of one top-10 recommend
// round trip to a stub backend, client and server together; allocSlack
// absorbs the background allocations of a loaded process.
const (
	roundTripAllocs = 57
	allocSlack      = 2
)

// TestRecommendRoundTripAllocs pins what one loopback recommend costs the
// heap, client and server together, so reflection or a per-request buffer
// cannot come back unnoticed.
func TestRecommendRoundTripAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("the race detector drops pooled buffers at random")
	}
	recs := make([]model.Ranked, 10)
	for i := range recs {
		recs[i] = model.Ranked{Item: 31 - i, CTR: 0.5 - 0.001*float32(i)}
	}
	stub := newStub(func(n uint64, ctx context.Context, q live.Query) (live.Reply, error) {
		return live.Reply{Latency: time.Millisecond, BatchSize: 256, Recs: recs}, nil
	})
	srv := startServer(t, stub, ServerConfig{})
	c := newTestClient(t, srv, ClientConfig{MaxAttempts: 1})
	call := func() {
		if _, err := c.Recommend(context.Background(), RecommendRequest{Candidates: 32, TopN: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		call()
	}
	if got := testing.AllocsPerRun(500, call); got > roundTripAllocs+allocSlack {
		t.Fatalf("%.0f allocations per round trip, pinned at %d (+%d)", got, roundTripAllocs, allocSlack)
	} else {
		t.Logf("%.0f allocations per round trip (pinned at %d)", got, roundTripAllocs)
	}
}
