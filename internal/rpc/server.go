package rpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
)

// statusClientClosed is nginx's de-facto "client closed request" status:
// the query was cancelled by the caller, not failed by the server. The
// client never reads it (it is gone), but proxies and logs do.
const statusClientClosed = 499

// maxBodyBytes bounds the recommend request body; the wire format is a
// three-field JSON object, so anything near the cap is garbage.
const maxBodyBytes = 1 << 16

// drainGrace bounds how long Drain waits for in-flight requests before
// giving up on them; retryAfterFloor and retryAfterCap clamp the 503
// backoff hint.
const (
	drainGrace      = 30 * time.Second
	retryAfterFloor = 5 * time.Millisecond
	retryAfterCap   = 2 * time.Second
)

// ServerConfig parameterizes a Server. The zero value works.
type ServerConfig struct {
	// Model is the served model's name, echoed in /statsz ("" = unnamed).
	Model string
}

// Server serves one fleet.Backend — a live.Service, a whole Fleet viewed
// through AsBackend, or anything else satisfying the transport interface —
// over the HTTP/JSON wire protocol. Create one with NewServer, expose it
// via Handler (any mux/listener) or Start (own listener), and stop it with
// Drain: new work is refused with 503/draining while in-flight requests
// finish, the SIGTERM semantics of a well-behaved serving process.
//
// The server does not own the backend: Drain stops the HTTP boundary, and
// the caller then closes the backend itself (flushing queued-but-unstarted
// queries per the live tier's ErrShutdown semantics) — the two-phase
// shutdown that loses no admitted query.
type Server struct {
	b   fleet.Backend
	cfg ServerConfig

	tenantIdx map[string]int
	tenants   []string

	draining atomic.Bool
	inflight sync.WaitGroup

	// Wire-level disposition counters (ServerCounters in /statsz).
	reqs, ok                        atomic.Uint64
	overloaded, deadline, drainingN atomic.Uint64
	down, cancelled, badreq         atomic.Uint64
	hintMu                          sync.Mutex
	hintAt                          time.Time
	hintVal                         time.Duration
	httpSrv                         *http.Server
	lnAddr                          string
	serveErr                        chan error
}

// NewServer wraps a backend in the wire protocol. The backend's tenant set
// is read once, from a snapshot, at construction; SubmitTo-style addressing
// uses it to map wire tenant names to indices.
func NewServer(b fleet.Backend, cfg ServerConfig) *Server {
	s := &Server{b: b, cfg: cfg, tenantIdx: make(map[string]int)}
	for i, t := range b.Snapshot().Tenants {
		s.tenants = append(s.tenants, t.Tenant)
		s.tenantIdx[t.Tenant] = i
	}
	return s
}

// Handler returns the server's HTTP handler: mount it on any mux or
// listener the process already owns.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathRecommend, s.handleRecommend)
	mux.HandleFunc(PathHealth, func(w http.ResponseWriter, r *http.Request) { s.answerProbe(w, s.b.Failed(), "ok") })
	mux.HandleFunc(PathReady, func(w http.ResponseWriter, r *http.Request) { s.answerProbe(w, false, "ready") })
	mux.HandleFunc(PathStats, s.handleStats)
	return mux
}

// Start binds addr (host:port; port 0 picks a free one) and serves in the
// background, returning the bound address. Stop with Drain (graceful) or
// Close (immediate).
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.lnAddr = ln.Addr().String()
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.httpSrv.Serve(ln) }()
	return s.lnAddr, nil
}

// Addr returns the bound address of a Started server ("" before Start).
func (s *Server) Addr() string { return s.lnAddr }

// Drain begins graceful shutdown: /readyz flips to 503, new recommend
// requests are refused with 503/draining, and Drain blocks until every
// in-flight request finishes (bounded by ctx and a 30s grace), then
// stops the listener. The backend is untouched — close it after Drain to
// flush its queued work per the ErrShutdown semantics. Drain is
// idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	grace, cancel := context.WithTimeout(ctx, drainGrace)
	defer cancel()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-grace.Done():
		err = fmt.Errorf("rpc: drain gave up with requests in flight: %w", grace.Err())
	}
	if s.httpSrv != nil {
		if serr := s.httpSrv.Shutdown(grace); serr != nil && err == nil && !errors.Is(serr, context.Canceled) && !errors.Is(serr, context.DeadlineExceeded) {
			err = serr
		}
	}
	return err
}

// Close stops the listener immediately, severing in-flight connections.
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// Counters returns the wire-level disposition ledger.
func (s *Server) Counters() ServerCounters {
	return ServerCounters{
		Requests:   s.reqs.Load(),
		OK:         s.ok.Load(),
		Overloaded: s.overloaded.Load(),
		Deadline:   s.deadline.Load(),
		Draining:   s.drainingN.Load(),
		Down:       s.down.Load(),
		Cancelled:  s.cancelled.Load(),
		BadRequest: s.badreq.Load(),
	}
}

// handleRecommend is the serving verb: decode, re-arm the propagated
// deadline, submit through the backend's full admission/execution path,
// and map the outcome onto the wire's failure taxonomy.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.reqs.Add(1)
	if s.draining.Load() {
		s.drainingN.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
		return
	}
	// The in-flight gate opens after the draining check and is re-checked
	// under it, so Drain's wait cannot miss a request that slipped past
	// the first check.
	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.draining.Load() {
		s.drainingN.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
		return
	}

	var req RecommendRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), &req, scanRequest); err != nil {
		s.badreq.Add(1)
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error(), 0)
		return
	}
	q := live.Query{Candidates: req.Candidates, TopN: req.TopN}
	if req.Tenant != "" {
		idx, ok := s.tenantIdx[req.Tenant]
		if !ok {
			s.badreq.Add(1)
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("unknown tenant %q", req.Tenant), 0)
			return
		}
		q.Tenant = idx
	}

	// Deadline propagation: re-arm the client's budget on the server-side
	// context. An expired budget still flows into Submit — the live tier
	// sheds it as ShedDeadline before it consumes an admission slot or a
	// forward pass, and the ledger stays conservation-exact.
	ctx := r.Context()
	if deadline, ok := wireDeadline(r.Header, time.Now()); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	reply, err := s.b.Submit(ctx, q)
	if err != nil {
		s.writeSubmitError(w, r, err)
		return
	}
	s.ok.Add(1)
	resp := RecommendResponse{
		ServerUs:  reply.Latency.Microseconds(),
		Batch:     reply.BatchSize,
		Offloaded: reply.Offloaded,
		Degraded:  reply.Degraded,
		Tenant:    s.tenants[reply.Tenant],
	}
	if req.TopN > 0 {
		resp.Recs = make([]Rec, len(reply.Recs))
		for i, rec := range reply.Recs {
			resp.Recs[i] = Rec{Item: rec.Item, CTR: rec.CTR}
		}
	}
	bp := getBuf()
	b, ok := appendResponse(*bp, &resp)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if ok {
		// A NaN or infinite CTR leaves the 200 without a body, as
		// encoding/json's refusal did: the client reads a truncated reply.
		w.Write(b)
	}
	*bp = b
	putBuf(bp)
}

// wireDeadline extracts the propagated deadline from the request headers:
// the absolute form when present and plausible (it charges transit time
// against the budget, enabling expired-on-arrival shedding), else the
// relative budget, else none.
func wireDeadline(h http.Header, now time.Time) (time.Time, bool) {
	if v := h.Get(HeaderDeadlineUnixUs); v != "" {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil {
			deadline := time.UnixMicro(us)
			if now.Sub(deadline) < deadlineDrift {
				return deadline, true
			}
			// An absolute deadline hours in the past is clock skew, not a
			// late request; fall through to the relative budget.
		}
	}
	if v := h.Get(HeaderTimeoutUs); v != "" {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil {
			return now.Add(time.Duration(us) * time.Microsecond), true
		}
	}
	return time.Time{}, false
}

// writeSubmitError maps the serving stack's error taxonomy onto the wire.
func (s *Server) writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, live.ErrOverloaded):
		s.overloaded.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, CodeOverloaded, err.Error(), s.retryAfterHint())
	case errors.Is(err, live.ErrClosed):
		// Refused before the backend's ledger counted it, like the drain
		// checks above: CodeDraining always means "in no server ledger".
		s.drainingN.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error(), 0)
	case errors.Is(err, live.ErrShutdown), errors.Is(err, live.ErrReplicaDown):
		// ErrShutdown: admitted, then flushed by Close — the backend's
		// ledger counts it Abandoned.
		s.down.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, CodeDown, err.Error(), 0)
	case errors.Is(err, context.DeadlineExceeded):
		s.deadline.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, CodeDeadline, "deadline exceeded", 0)
	case errors.Is(err, context.Canceled):
		// Either the client went away (its wire context died) or it
		// cancelled an un-deadlined submit; nobody is reading the reply.
		s.cancelled.Add(1)
		s.writeError(w, statusClientClosed, CodeCancelled, "client cancelled", 0)
	default:
		// The live tier's remaining errors are request validation
		// (candidates out of range, bad tenant index).
		s.badreq.Add(1)
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error(), 0)
	}
}

// retryAfterHint derives the 503 backoff hint from the backend's queue
// depth and typical service time: depth+1 service times is when a slot
// plausibly frees up. The stats snapshot is cached briefly — under an
// overload storm this path is hot, and the hint does not need to be fresh
// to the millisecond.
func (s *Server) retryAfterHint() time.Duration {
	s.hintMu.Lock()
	defer s.hintMu.Unlock()
	if time.Since(s.hintAt) < 50*time.Millisecond && s.hintVal > 0 {
		return s.hintVal
	}
	st := live.Fold(s.b.Snapshot().Tenants)
	p50 := st.P50
	if p50 <= 0 {
		p50 = 10 * time.Millisecond
	}
	hint := time.Duration(st.Queued+1) * p50
	hint = min(max(hint, retryAfterFloor), retryAfterCap)
	s.hintAt, s.hintVal = time.Now(), hint
	return hint
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		// Standard header in (rounded-up) seconds for generic clients,
		// millisecond precision for ours.
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		w.Header().Set(HeaderRetryAfterMs, strconv.FormatInt(retryAfter.Milliseconds(), 10))
	}
	writeJSON(w, status, ErrorResponse{Code: code, Error: msg, RetryAfterMs: retryAfter.Milliseconds()})
}

// jsonContentType is the Content-Type of every JSON body, shared read-only.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// answerProbe answers /healthz (liveness: down when the backend reports
// itself failed; a fleet's remote-replica prober keys ejection off it) and
// /readyz (readiness: never down): 503 once draining begins, so load
// balancers stop sending, or when down, and 200 with body otherwise.
func (s *Server) answerProbe(w http.ResponseWriter, down bool, body string) {
	switch {
	case s.draining.Load():
		s.writeError(w, http.StatusServiceUnavailable, CodeDraining, "draining", 0)
	case down:
		s.writeError(w, http.StatusServiceUnavailable, CodeDown, "backend failed", 0)
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, body)
	}
}

// handleStats serves one snapshot of the backend — each tenant's ledger and
// latency histogram, and their fold as the service's — plus the wire
// counters: the payload a RemoteReplica merges into its fleet's stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.b.Snapshot()
	resp := StatsResponse{
		Model:    s.cfg.Model,
		Scale:    snap.Scale,
		GPU:      snap.GPU,
		Draining: s.draining.Load(),
		Service:  live.Fold(snap.Tenants).Stats,
		Server:   s.Counters(),
	}
	for i, t := range snap.Tenants {
		resp.Tenants = append(resp.Tenants, TenantStatsz{Name: t.Tenant, Stats: t.Stats, Latency: &snap.Tenants[i].Latency})
	}
	writeJSON(w, http.StatusOK, resp)
}
