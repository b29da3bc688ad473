// Package rpc is the wire-level serving boundary: an HTTP/JSON RPC surface
// over the live/fleet serving stack, plus the Go client library that
// speaks it. Everything below this package is an in-process library; this
// package is where the repo becomes a multi-process system — queries from
// millions of users arrive over a network, and the paper's
// latency-bounded-throughput framing only survives that crossing if the
// failure semantics do too. The design centers on four of them:
//
//   - Deadlines survive serialization. A client's context deadline rides
//     the request as a header (absolute timestamp, with a relative-budget
//     fallback for skewed clocks) and re-arms a server-side context, so a
//     query whose budget expired in flight is shed as ShedDeadline before
//     it consumes an admission slot or a forward pass — exactly the
//     in-process semantics, now spanning processes.
//
//   - Overload becomes backpressure the client can act on. Admission-
//     control sheds (live.ErrOverloaded) map to 503 with a Retry-After
//     hint derived from the server's queue depth and typical service
//     time; the client's retry policy treats it as an explicit invitation
//     to back off, not a coin-flip connection error.
//
//   - Failure ambiguity is respected. The client retries only errors
//     that provably precede execution — connection-refused/dial failures
//     and 503 refusals — never an in-flight failure (reset mid-response,
//     timeout with the request delivered), where the server may have done
//     the work. Retries spend a per-request attempt budget plus a
//     client-wide retry budget with exponential backoff and jitter, so a
//     dying server sees a decaying trickle, not a synchronized storm.
//
//   - The network itself is a fault domain. A NetChaos transport injects
//     added latency, dropped connections, and mid-flight resets under the
//     same spec-grammar discipline as the fleet's process-level chaos
//     tier, so soak tests can prove the counter-conservation identities
//     hold across partitions — not just crashes.
//
// RemoteReplica closes the loop: it implements fleet.Backend over this
// wire, so a fleet front end routes to replicas in other processes exactly
// as it routes in-process — health-check ejection, one-retry-on-crash, and
// stats merging unchanged. Its stats come from one function that reads
// /statsz, with no cache: at construction, on every Snapshot and once more
// on Close, each read bounded by 2s, and a read that fails leaves the last
// body that landed.
//
// The recommend round trip is the wire's hot path, and two pieces keep its
// software cost down without changing a byte of what crosses the network.
// The client's default transport (transport.go) is the package's own
// keep-alive HTTP/1.1 client: it writes the request and reads the reply on
// the calling goroutine, where net/http's Transport hands each to a goroutine
// of its own, checks an idle connection with a non-blocking peek before
// reusing it, and speaks plain-text http only. The recommend messages are
// encoded by hand, byte for byte what encoding/json writes, and decoded by a
// strict scanner that passes any body it does not recognise to encoding/json
// (codec.go); the operational endpoints keep encoding/json.
//
// The timings are constants, not settings: the server drains for at most
// 30s and clamps its Retry-After hint to [5ms, 2s]; the client backs off
// from 10ms, doubling to 1s, and arms hedging after 64 successes; a remote
// member is probed every 250ms.
package rpc

import (
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
)

// Wire paths. The RPC surface is deliberately small: one serving verb,
// three operational probes.
const (
	PathRecommend = "/v1/recommend"
	PathHealth    = "/healthz"
	PathReady     = "/readyz"
	PathStats     = "/statsz"
)

// Deadline-propagation headers. The client sends both on every
// deadline-carrying request; the server prefers the absolute form (exact
// on NTP-synced or same-host fleets — it charges time spent in flight
// against the budget, which is what makes expired-on-arrival shedding
// possible) and falls back to the relative budget when absent (immune to
// clock skew, blind to transit time — the gRPC compromise).
const (
	// HeaderDeadlineUnixUs is the client's absolute deadline as
	// microseconds since the Unix epoch.
	HeaderDeadlineUnixUs = "Deeprecsys-Deadline-Unix-Us"
	// HeaderTimeoutUs is the client's remaining budget at send time, in
	// microseconds.
	HeaderTimeoutUs = "Deeprecsys-Timeout-Us"
	// HeaderRetryAfterMs carries the server's backoff hint on 503s, in
	// milliseconds — finer-grained than the standard integral-seconds
	// Retry-After, which is also set.
	HeaderRetryAfterMs = "Deeprecsys-Retry-After-Ms"
	// headerHedge marks a hedged duplicate of a request already in flight;
	// a primary attempt goes without it.
	headerHedge = "Deeprecsys-Hedge"
)

// Error codes carried in ErrorResponse.Code: the machine-readable failure
// taxonomy of the boundary.
const (
	// CodeOverloaded: admission control shed the query (HTTP 503).
	// Retryable — the Retry-After hint says when.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down gracefully and accepts no
	// new work (HTTP 503): the query reached no server ledger. Retryable —
	// a supervisor may be restarting it, or a fleet has other replicas.
	CodeDraining = "draining"
	// CodeDown: the serving backend is failed/unreachable behind this
	// server, or flushed the admitted query while shutting down (HTTP 503).
	// Retryable elsewhere.
	CodeDown = "down"
	// CodeDeadline: the query's deadline expired — on arrival, in the
	// admission queue, or mid-execution (HTTP 504). Not retryable: the
	// budget is spent.
	CodeDeadline = "deadline"
	// CodeCancelled: the client went away mid-request (HTTP 499, the
	// de-facto client-closed-request status).
	CodeCancelled = "cancelled"
	// CodeBadRequest: malformed body or invalid query parameters
	// (HTTP 400). Not retryable.
	CodeBadRequest = "bad_request"
)

// RecommendRequest is the POST /v1/recommend body.
type RecommendRequest struct {
	// Candidates is the query size: the number of candidate items to rank.
	Candidates int `json:"candidates"`
	// TopN asks for the n highest-CTR items back (0 = serve and measure
	// only, the load-driver mode).
	TopN int `json:"topn,omitempty"`
	// Tenant addresses one of the server's tenants by name ("" = its first;
	// a single-model server's one tenant is named after its model).
	Tenant string `json:"tenant,omitempty"`
}

// Rec is one ranked recommendation on the wire.
type Rec struct {
	Item int     `json:"item"`
	CTR  float32 `json:"ctr"`
}

// RecommendResponse is the 200 body for /v1/recommend.
type RecommendResponse struct {
	Recs []Rec `json:"recs,omitempty"`
	// ServerUs is the server-measured end-to-end latency in microseconds
	// (admission wait included, wire excluded).
	ServerUs int64 `json:"server_us"`
	// Batch is the per-request batch size the query executed at.
	Batch int `json:"batch"`
	// Offloaded / Degraded report accelerator-lane and fallback-model
	// serving, as in live.Reply.
	Offloaded bool `json:"offloaded,omitempty"`
	Degraded  bool `json:"degraded,omitempty"`
	// Tenant is the serving tenant's name (a single-model server's one
	// tenant is named after its model).
	Tenant string `json:"tenant,omitempty"`
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
	// RetryAfterMs duplicates the header hint for clients that only read
	// bodies (0 = no hint).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// TenantStatsz is one tenant's slice of the /statsz payload: its Stats and
// the histogram of the latency window behind their percentiles, which a
// RemoteReplica folds as its own.
type TenantStatsz struct {
	Name    string      `json:"name"`
	Stats   live.Stats  `json:"stats"`
	Latency *stats.Hist `json:"latency,omitempty"`
}

// ServerCounters are the wire-level ledgers the HTTP layer keeps on top of
// the serving stack's own: how the boundary itself disposed of requests.
type ServerCounters struct {
	// Requests counts recommend requests reaching the handler; OK the 200s.
	Requests, OK uint64
	// Overloaded / Deadline / Draining / Down / Cancelled / BadRequest
	// count the non-200 dispositions by error code.
	Overloaded, Deadline, Draining, Down, Cancelled, BadRequest uint64
}

// StatsResponse is the GET /statsz payload: the served backend's full
// lifetime ledger (the same live.Stats the in-process fleet merges), its
// per-tenant breakdown, and the wire-level server counters.
type StatsResponse struct {
	// Model is the served model's name (first tenant's, on a multi-tenant
	// server).
	Model string `json:"model,omitempty"`
	// Scale is the backend's service-time scale factor (node speed).
	Scale float64 `json:"scale"`
	// GPU reports whether the backend has the accelerator offload lane.
	GPU bool `json:"gpu,omitempty"`
	// Draining reports whether graceful shutdown has begun.
	Draining bool `json:"draining,omitempty"`
	// Service is the backend's merged lifetime ledger.
	Service live.Stats `json:"service"`
	// Tenants is the per-tenant breakdown, in tenant order.
	Tenants []TenantStatsz `json:"tenants,omitempty"`
	// Server is the wire-level disposition ledger.
	Server ServerCounters `json:"server"`
}

// deadlineDrift bounds how stale an absolute deadline may be before the
// server distrusts the clock and falls back to the relative budget: an
// absolute deadline further than this in the past is more plausibly skew
// than a genuinely hours-expired request.
const deadlineDrift = time.Hour
