package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
)

// Error is the typed failure a Client surfaces for any non-200 response or
// transport fault. Unwrap maps the wire taxonomy back onto the serving
// stack's sentinels, so code written against live.ErrOverloaded /
// live.ErrReplicaDown / context.DeadlineExceeded keeps working when the
// service moves across a network.
type Error struct {
	// Code is the wire error code ("overloaded", "draining", ...);
	// "connect" for transport-level failures that provably preceded
	// delivery, "reset" for mid-flight transport failures.
	Code string
	// Status is the HTTP status (0 for transport-level failures).
	Status int
	// Msg is the server's (or transport's) error text.
	Msg string
	// RetryAfterMs is the server's backoff hint, if any.
	RetryAfterMs int64
}

func (e *Error) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("rpc: %s (HTTP %d): %s", e.Code, e.Status, e.Msg)
	}
	return fmt.Sprintf("rpc: %s: %s", e.Code, e.Msg)
}

// Unwrap maps wire codes to the in-process error sentinels.
func (e *Error) Unwrap() error {
	switch e.Code {
	case CodeOverloaded:
		return live.ErrOverloaded
	case CodeDraining, CodeDown, codeConnect, codeReset:
		// All three mean "this replica cannot serve right now" to a
		// routing layer — the same signal an in-process crashed replica
		// raises.
		return live.ErrReplicaDown
	case CodeDeadline:
		return context.DeadlineExceeded
	}
	return nil
}

// Transport-level pseudo-codes (no HTTP status attached).
const (
	codeConnect = "connect"
	codeReset   = "reset"
)

// backoffBase and backoffCap shape the exponential backoff between
// attempts, jittered to half-to-full (a server Retry-After hint overrides
// it when larger); retryBudget is the client-wide retry allowance as a
// fraction of requests: each request earns 0.2 retry tokens and each retry
// spends one, so when a dying server fails every request, retries decay to
// a trickle instead of multiplying the load; hedgeMinSamples is the number
// of successes that calibrate the hedge trigger before hedging arms.
const (
	backoffBase     = 10 * time.Millisecond
	backoffCap      = time.Second
	retryBudget     = 0.2
	hedgeMinSamples = 64
)

// ClientConfig parameterizes a Client. The zero value is a sane
// low-latency profile: 3 attempts, 10ms–1s jittered exponential backoff,
// no hedging, no injected faults. Every client's retries draw on the 20%
// client-wide budget (retryBudget).
type ClientConfig struct {
	// Timeout is the default per-request deadline applied when the
	// caller's context has none (0 = none).
	Timeout time.Duration
	// MaxAttempts bounds tries per request, first attempt included
	// (default 3; 1 disables retry). Only provably-safe failures are
	// retried: connection-refused/dial errors and 503 refusals. Mid-flight
	// failures — resets, timeouts, 5xx after delivery — are never retried,
	// because the server may have executed the query.
	MaxAttempts int
	// HedgePercentile, when in (0, 100), arms hedged requests: if the
	// first attempt is still unanswered after the client-observed
	// latency at this percentile, a second identical request is fired and
	// the first answer wins — the classic tail-cutting move. Hedges only
	// fire once per request, only after 64 successes have calibrated the
	// trigger, and the loser is cancelled. Use with care: a hedge
	// duplicates work on the server, so it is safe for idempotent serving
	// reads (which /v1/recommend is) and poison for writes.
	HedgePercentile float64
	// Transport overrides the HTTP transport (e.g. a NetChaos injector);
	// nil is the package's own keep-alive HTTP/1.1 transport (transport.go).
	Transport http.RoundTripper
	// Seed makes backoff jitter deterministic for tests (default: 1).
	Seed int64
}

// ClientStats is the client-side ledger: how requests fared on the wire.
type ClientStats struct {
	// Requests counts Recommend calls; Attempts the HTTP sends they
	// expanded into (hedges included).
	Requests, Attempts uint64
	// Successes / Failures partition finished Recommend calls.
	Successes, Failures uint64
	// Retries counts backed-off re-sends; BudgetDenied the retries the
	// client-wide budget refused.
	Retries, BudgetDenied uint64
	// Hedges counts fired hedge requests; HedgeWins those that answered
	// before the primary.
	Hedges, HedgeWins uint64
	// ConnectErrors / Resets / Overloaded / DeadlineErrors break down the
	// failures seen across attempts.
	ConnectErrors, Resets, Overloaded, DeadlineErrors uint64
}

// Client speaks the wire protocol to one server. It is safe for
// concurrent use; create with NewClient.
type Client struct {
	base string
	cfg  ClientConfig
	hc   *http.Client

	lat *stats.Window // client-observed success RTTs, seconds (hedge trigger)

	rngMu sync.Mutex
	rng   *rand.Rand

	budgetMu     sync.Mutex
	budgetTokens float64
	unbudgeted   bool // retry every eligible failure (tests only)

	requests, attempts, successes, failures     atomic.Uint64
	retries, budgetDenied, hedges, hedgeWins    atomic.Uint64
	connectErrs, resets, overloaded, deadlineEs atomic.Uint64
}

// NewClient returns a Client for the server at target (e.g.
// "http://127.0.0.1:8080"; scheme defaults to http, and is the only one the
// wire speaks).
func NewClient(target string, cfg ClientConfig) (*Client, error) {
	if target == "" {
		return nil, errors.New("rpc: empty target")
	}
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	u, err := url.Parse(target)
	if err != nil {
		return nil, fmt.Errorf("rpc: bad target %q: %w", target, err)
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("rpc: target %q: scheme %q is not supported, only http", target, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("rpc: target %q has no host", target)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if p := cfg.HedgePercentile; p != 0 && !(p > 0 && p < 100) { // NaN fails too
		return nil, fmt.Errorf("rpc: hedge percentile %v outside (0, 100)", p)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rt := cfg.Transport
	if rt == nil {
		// A dedicated transport per client keeps connection pools (and
		// injected chaos) isolated between clients in one process.
		rt = newTransport()
	}
	return &Client{
		base: strings.TrimRight(u.String(), "/"),
		cfg:  cfg,
		hc:   &http.Client{Transport: rt},
		lat:  stats.NewWindow(1024),
		rng:  rand.New(rand.NewSource(seed)),
	}, nil
}

// Stats returns the client-side ledger.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Requests:       c.requests.Load(),
		Attempts:       c.attempts.Load(),
		Successes:      c.successes.Load(),
		Failures:       c.failures.Load(),
		Retries:        c.retries.Load(),
		BudgetDenied:   c.budgetDenied.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		ConnectErrors:  c.connectErrs.Load(),
		Resets:         c.resets.Load(),
		Overloaded:     c.overloaded.Load(),
		DeadlineErrors: c.deadlineEs.Load(),
	}
}

// Close releases idle connections.
func (c *Client) Close() {
	if t, ok := c.hc.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
}

// Recommend submits one query, applying the client's deadline, retry, and
// hedging policy. The returned error unwraps to the serving stack's
// sentinels (live.ErrOverloaded, live.ErrReplicaDown,
// context.DeadlineExceeded) where applicable.
func (c *Client) Recommend(ctx context.Context, req RecommendRequest) (RecommendResponse, error) {
	c.requests.Add(1)
	c.earnBudget()
	if _, ok := ctx.Deadline(); !ok && c.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
		defer cancel()
	}
	body := appendRequest(make([]byte, 0, 64), &req)

	var lastErr error
	for attempt := 1; ; attempt++ {
		start := time.Now()
		resp, err := c.attemptMaybeHedged(ctx, body)
		if err == nil {
			c.lat.Add(time.Since(start).Seconds())
			c.successes.Add(1)
			return resp, nil
		}
		lastErr = err
		c.countFailure(err)
		wait, retryable := c.retryDecision(err, attempt)
		if !retryable {
			break
		}
		if !c.spendBudget() {
			c.budgetDenied.Add(1)
			break
		}
		if sleepErr := sleepCtx(ctx, wait); sleepErr != nil {
			break
		}
		c.retries.Add(1)
	}
	c.failures.Add(1)
	return RecommendResponse{}, lastErr
}

// retryDecision classifies an attempt failure: (backoff, retry?).
// Retry-safe failures are exactly those that provably precede execution:
// a dial/refused error (the request never reached a server) and a 503
// refusal (the server explicitly declined before doing work). Everything
// else — resets, deadline errors, 4xx/504 — is either spent budget or
// ambiguous in-flight state, and retrying it would risk duplicate work.
func (c *Client) retryDecision(err error, attempt int) (time.Duration, bool) {
	if attempt >= c.cfg.MaxAttempts {
		return 0, false
	}
	var re *Error
	if !errors.As(err, &re) {
		return 0, false
	}
	switch re.Code {
	case codeConnect, CodeOverloaded, CodeDraining, CodeDown:
	default:
		return 0, false
	}
	backoff := backoffBase << (attempt - 1)
	if backoff > backoffCap || backoff <= 0 {
		backoff = backoffCap
	}
	// Jitter to [backoff/2, backoff): full synchronization with other
	// clients is the failure mode, not imprecision.
	c.rngMu.Lock()
	backoff = backoff/2 + time.Duration(c.rng.Int63n(int64(backoff/2)+1))
	c.rngMu.Unlock()
	// The server's hint is a floor, not a cap: it knows its queue.
	if hint := time.Duration(re.RetryAfterMs) * time.Millisecond; hint > backoff {
		backoff = hint
	}
	return backoff, true
}

// earnBudget credits the client-wide retry budget for one request.
func (c *Client) earnBudget() {
	if c.unbudgeted {
		return
	}
	c.budgetMu.Lock()
	// Cap the bucket so a long quiet period cannot bankroll a storm.
	if c.budgetTokens += retryBudget; c.budgetTokens > 100 {
		c.budgetTokens = 100
	}
	c.budgetMu.Unlock()
}

// spendBudget consumes one retry token, reporting whether one was
// available.
func (c *Client) spendBudget() bool {
	if c.unbudgeted {
		return true
	}
	c.budgetMu.Lock()
	defer c.budgetMu.Unlock()
	if c.budgetTokens < 1 {
		return false
	}
	c.budgetTokens--
	return true
}

func (c *Client) countFailure(err error) {
	var re *Error
	if !errors.As(err, &re) {
		return
	}
	switch re.Code {
	case codeConnect:
		c.connectErrs.Add(1)
	case codeReset:
		c.resets.Add(1)
	case CodeOverloaded:
		c.overloaded.Add(1)
	case CodeDeadline:
		c.deadlineEs.Add(1)
	}
}

// attemptMaybeHedged sends one logical attempt, firing a hedge when armed
// and the primary outlasts the trigger latency. First answer wins; the
// loser's context is cancelled.
func (c *Client) attemptMaybeHedged(ctx context.Context, body []byte) (RecommendResponse, error) {
	hedgeAfter, armed := c.hedgeDelay()
	if !armed {
		return c.attemptOnce(ctx, body, false)
	}
	type outcome struct {
		resp  RecommendResponse
		err   error
		hedge bool
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, 2)
	launch := func(hedge bool) {
		resp, err := c.attemptOnce(raceCtx, body, hedge)
		results <- outcome{resp, err, hedge}
	}
	go launch(false)
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	launched := 1
	hedged := false
	var firstErr error
	for done := 0; done < launched; {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				c.hedges.Add(1)
				launched++
				go launch(true)
			}
		case out := <-results:
			done++
			if out.err == nil {
				if out.hedge {
					c.hedgeWins.Add(1)
				}
				// Winner takes the race; the deferred cancel reaps the
				// loser's in-flight request.
				return out.resp, nil
			}
			if firstErr == nil || !errors.Is(out.err, context.Canceled) {
				firstErr = out.err
			}
		}
	}
	return RecommendResponse{}, firstErr
}

// hedgeDelay returns the armed hedge trigger, if hedging is configured and
// calibrated.
func (c *Client) hedgeDelay() (time.Duration, bool) {
	if c.cfg.HedgePercentile <= 0 {
		return 0, false
	}
	h := c.lat.Snapshot()
	d := time.Duration(h.Percentile(c.cfg.HedgePercentile) * float64(time.Second))
	return d, h.Count() >= hedgeMinSamples && d > 0
}

// attemptOnce performs one HTTP round trip, attaching the deadline headers
// (and the hedge mark on a hedge) and classifying the outcome.
func (c *Client) attemptOnce(ctx context.Context, body []byte, hedge bool) (RecommendResponse, error) {
	c.attempts.Add(1)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+PathRecommend, bytes.NewReader(body))
	if err != nil {
		return RecommendResponse{}, fmt.Errorf("rpc: build request: %w", err)
	}
	hreq.Header["Content-Type"] = jsonContentType
	if deadline, ok := ctx.Deadline(); ok {
		// Both forms ride along; the server picks (wire.go explains why).
		hreq.Header.Set(HeaderDeadlineUnixUs, strconv.FormatInt(deadline.UnixMicro(), 10))
		budget := time.Until(deadline).Microseconds()
		if budget < 0 {
			budget = 0
		}
		hreq.Header.Set(HeaderTimeoutUs, strconv.FormatInt(budget, 10))
	}
	if hedge {
		hreq.Header.Set(headerHedge, "1")
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return RecommendResponse{}, classifyTransportErr(ctx, err)
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode == http.StatusOK {
		var resp RecommendResponse
		if derr := decodeBody(hresp.Body, &resp, scanResponse); derr != nil {
			// The status line said success but the payload died mid-wire:
			// ambiguous, treated like a reset.
			return RecommendResponse{}, &Error{Code: codeReset, Msg: "response truncated: " + derr.Error()}
		}
		return resp, nil
	}
	return RecommendResponse{}, decodeErrorResponse(hresp)
}

// decodeErrorResponse turns a non-200 response into a typed *Error.
func decodeErrorResponse(hresp *http.Response) *Error {
	var body ErrorResponse
	json.NewDecoder(io.LimitReader(hresp.Body, maxBodyBytes)).Decode(&body)
	e := &Error{Code: body.Code, Status: hresp.StatusCode, Msg: body.Error, RetryAfterMs: body.RetryAfterMs}
	if e.RetryAfterMs == 0 {
		if v := hresp.Header.Get(HeaderRetryAfterMs); v != "" {
			e.RetryAfterMs, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if e.Code == "" {
		e.Code = fmt.Sprintf("http_%d", hresp.StatusCode)
	}
	if e.Msg == "" {
		e.Msg = hresp.Status
	}
	return e
}

// classifyTransportErr splits transport failures into retry-safe connect
// errors and ambiguous in-flight ones. The caller's expired deadline wins
// over any transport symptom: a timed-out request is spent budget
// regardless of how the socket died.
func classifyTransportErr(ctx context.Context, err error) *Error {
	if ctx.Err() != nil {
		code := CodeDeadline
		if errors.Is(ctx.Err(), context.Canceled) {
			code = CodeCancelled
		}
		return &Error{Code: code, Msg: err.Error()}
	}
	if isConnectErr(err) {
		return &Error{Code: codeConnect, Msg: err.Error()}
	}
	return &Error{Code: codeReset, Msg: err.Error()}
}

// isConnectErr reports whether err provably occurred before the request
// was delivered: a dial-phase failure or connection-refused. A reset or
// EOF mid-exchange does NOT qualify — the request may have been executed.
func isConnectErr(err error) bool {
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED)
}

// sleepCtx sleeps d (nothing when d <= 0) or until ctx dies, returning
// ctx's error in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- operational endpoints ---

// Healthz probes /healthz, returning nil iff the server reports healthy.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, PathHealth, nil)
}

// Statsz fetches the server's /statsz ledger.
func (c *Client) Statsz(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.call(ctx, PathStats, &resp)
	return resp, err
}

// call makes one operational GET. A 200 reply's body decodes into out
// (nil = discarded); any other status or transport fault is a typed *Error.
func (c *Client) call(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return classifyTransportErr(ctx, err)
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		return decodeErrorResponse(hresp)
	}
	if out != nil {
		if err := json.NewDecoder(hresp.Body).Decode(out); err != nil {
			return fmt.Errorf("rpc: decode %s: %w", path, err)
		}
	}
	return nil
}
