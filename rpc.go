package deeprecsys

import (
	"context"
	"fmt"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/rpc"
)

// HTTPServer is a Service published on the wire: the HTTP/JSON serving
// boundary (POST /v1/recommend plus the /healthz, /readyz and /statsz
// probes) documented in docs/ARCHITECTURE.md. Create one with
// Service.StartHTTP; stop it with Drain (graceful — the SIGTERM path) or
// Close (abrupt). The underlying Service keeps running either way: the
// HTTP boundary is a view on it, and the owner still calls Service.Close
// after Drain to flush queued work.
type HTTPServer struct {
	srv *rpc.Server
}

// StartHTTP publishes the service at addr ("host:port"; port 0 picks a
// free one) and returns the running server. Remote clients reach it with
// NewRemoteClient, `deeprecsys loadgen -target`, or any HTTP client
// speaking the wire format; a fleet in another process joins it with
// AddRemoteReplica.
func (s *Service) StartHTTP(addr string) (*HTTPServer, error) {
	srv := rpc.NewServer(s.fl.AsBackend(), rpc.ServerConfig{Model: s.fl.Stats().Tenants[0].Model})
	if _, err := srv.Start(addr); err != nil {
		return nil, err
	}
	return &HTTPServer{srv: srv}, nil
}

// Addr returns the server's bound address (useful with port 0).
func (h *HTTPServer) Addr() string { return h.srv.Addr() }

// Drain performs graceful shutdown: readiness flips to 503, new requests
// are refused as draining, in-flight requests finish (bounded by ctx),
// then the listener stops. Pair it with Service.Close to flush the
// service's own queues.
func (h *HTTPServer) Drain(ctx context.Context) error { return h.srv.Drain(ctx) }

// Close stops the listener immediately, severing in-flight connections.
func (h *HTTPServer) Close() error { return h.srv.Close() }

// HTTPServerCounters is the wire-level disposition ledger of an
// HTTPServer: how the boundary itself answered requests, on top of the
// Service's own stats. Requests counts recommend requests reaching the
// server and OK the successful replies; Overloaded, Deadline, Draining,
// Down, Cancelled, and BadRequest count the refused requests by wire error
// code.
type HTTPServerCounters = rpc.ServerCounters

// Counters returns the server's wire-level disposition ledger.
func (h *HTTPServer) Counters() HTTPServerCounters { return h.srv.Counters() }

// ClientOptions tunes a RemoteClient. The zero value is a sane profile:
// 3 attempts with jittered exponential backoff (10ms doubling to 1s) under a
// 20% client-wide retry budget, no hedging, no injected faults, no default
// timeout.
type ClientOptions struct {
	// Timeout is the per-request deadline applied when the caller's
	// context has none (0 = none). The deadline propagates to the server,
	// which sheds expired-on-arrival queries before they consume a
	// forward pass.
	Timeout time.Duration
	// MaxAttempts bounds tries per request (default 3; 1 disables retry).
	// Only provably-safe failures retry: connection-refused and 503.
	MaxAttempts int
	// HedgePercentile in (0, 100) arms tail-cutting hedged requests: a
	// second identical request fires when the first outlasts this
	// client-observed latency percentile, first answer wins (0 = off).
	HedgePercentile float64
	// NetChaos injects network faults into this client's transport, as a
	// spec string: comma-separated netdelay:<dur>, netdrop:<p>,
	// netreset:<p>, netseed:<n> ("" or "none" = off).
	NetChaos string
}

// clientConfig lowers the public options onto the wire client's config.
func (o ClientOptions) clientConfig() (rpc.ClientConfig, error) {
	cfg := rpc.ClientConfig{
		Timeout:         o.Timeout,
		MaxAttempts:     o.MaxAttempts,
		HedgePercentile: o.HedgePercentile,
	}
	if o.NetChaos != "" && o.NetChaos != "none" {
		nc, err := rpc.ParseNetChaos(o.NetChaos)
		if err != nil {
			return cfg, err
		}
		cfg.Transport = nc.Transport(nil)
	}
	return cfg, nil
}

// RemoteClient submits queries to a Service published in another process
// via StartHTTP (or `deeprecsys serve -listen`). It carries the client
// half of the wire's failure semantics: deadline propagation, retry
// budgets with backoff + jitter, and optional hedging. Safe for
// concurrent use.
type RemoteClient struct {
	c *rpc.Client
}

// NewRemoteClient connects to the server at target (e.g.
// "http://127.0.0.1:8080"; the scheme defaults to http).
func NewRemoteClient(target string, opts ClientOptions) (*RemoteClient, error) {
	cfg, err := opts.clientConfig()
	if err != nil {
		return nil, err
	}
	c, err := rpc.NewClient(target, cfg)
	if err != nil {
		return nil, err
	}
	return &RemoteClient{c: c}, nil
}

// Recommend serves one query over the wire, like Service.Submit. Errors
// unwrap to the same sentinels (ErrOverloaded, ErrReplicaDown,
// context.DeadlineExceeded), so local retry/shed handling ports
// unchanged.
func (c *RemoteClient) Recommend(ctx context.Context, candidates, topN int) (Reply, error) {
	return c.recommend(ctx, rpc.RecommendRequest{Candidates: candidates, TopN: topN})
}

// RecommendTo addresses one named tenant on a multi-tenant server, like
// Service.SubmitTo.
func (c *RemoteClient) RecommendTo(ctx context.Context, tenant string, candidates, topN int) (Reply, error) {
	return c.recommend(ctx, rpc.RecommendRequest{Candidates: candidates, TopN: topN, Tenant: tenant})
}

func (c *RemoteClient) recommend(ctx context.Context, req rpc.RecommendRequest) (Reply, error) {
	start := time.Now()
	resp, err := c.c.Recommend(ctx, req)
	if err != nil {
		return Reply{}, err
	}
	reply := Reply{
		// The client-observed latency includes the wire; the server-side
		// measurement is what the service's own stats report.
		Latency:   time.Since(start),
		BatchSize: resp.Batch,
		Offloaded: resp.Offloaded,
		Degraded:  resp.Degraded,
		Tenant:    resp.Tenant,
	}
	if len(resp.Recs) > 0 {
		reply.Recs = make([]Recommendation, len(resp.Recs))
		for i, rec := range resp.Recs {
			reply.Recs[i] = Recommendation{Item: rec.Item, CTR: rec.CTR}
		}
	}
	return reply, nil
}

// Healthy probes the server's /healthz, returning nil iff it serves.
func (c *RemoteClient) Healthy(ctx context.Context) error { return c.c.Healthz(ctx) }

// RemoteClientStats is the client-side wire ledger: how Recommend calls
// fared on the network. Requests counts Recommend calls and Attempts the
// HTTP sends they expanded into (hedges included); Successes/Failures
// partition the finished calls; Retries counts backed-off re-sends,
// BudgetDenied retries the client-wide budget refused, Hedges fired hedge
// requests and HedgeWins those that beat the primary; ConnectErrors,
// Resets, Overloaded, and DeadlineErrors break down the failures observed
// across attempts.
type RemoteClientStats = rpc.ClientStats

// Stats returns the client-side wire ledger.
func (c *RemoteClient) Stats() RemoteClientStats { return c.c.Stats() }

// Close releases the client's idle connections.
func (c *RemoteClient) Close() { c.c.Close() }

// AddRemoteReplica joins a Service published in another process (via
// StartHTTP or `serve -listen`) to this service's routing set, returning its
// replica ID. The remote member is routed exactly like a local replica —
// health-check ejection and crash retry work over the wire — but the
// fleet does not own its lifecycle: RemoveReplica detaches it (folding
// its served counters into the fleet totals) without shutting the remote
// process down, and the autoscaler and process-level chaos never pick it.
// The remote server's tenant set must match this service's.
func (s *Service) AddRemoteReplica(target string) (int, error) {
	if s.sharded {
		return 0, fmt.Errorf("deeprecsys: cannot join %s to a table-sharded fleet (the shard layout is fixed at Serve)", target)
	}
	r, err := rpc.NewRemoteReplica(target)
	if err != nil {
		return 0, err
	}
	return s.fl.AddBackend(r)
}
