package rpc

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Injected fault sentinels, distinguishable from real network failures in
// test assertions.
var (
	errInjectedDrop  = errors.New("rpc: injected connection drop")
	errInjectedReset = errors.New("rpc: injected connection reset")
)

// NetChaos is the network fault injector: a RoundTripper wrapper that
// makes the wire itself a fault domain. It complements the fleet's
// process-level chaos tier (crash/slow/spike) with the failure classes
// only a network has:
//
//   - Delay: added per-round-trip latency, split across the two directions
//     — with deadline propagation in absolute form, enough added delay
//     turns an in-flight query into an expired-on-arrival one, exercising
//     the server's ShedDeadline path.
//   - Drop: the connection fails before the request is sent (refused/
//     unreachable). Provably pre-execution, so clients may retry it.
//   - Reset: the connection dies after the request was delivered, the
//     response lost. Ambiguous — the server did the work — so clients must
//     NOT retry it; soak tests use it to prove the conservation identities
//     survive responses that vanish mid-wire.
//
// The zero value injects nothing.
type NetChaos struct {
	// Delay is added to every surviving round trip (half before, half
	// after the exchange).
	Delay time.Duration
	// Drop is the per-attempt probability of failing before delivery.
	Drop float64
	// Reset is the per-attempt probability of losing the response after
	// delivery.
	Reset float64
	// Seed makes the fault schedule deterministic (default 1).
	Seed int64
}

// Enabled reports whether any fault class can fire.
func (c NetChaos) Enabled() bool { return c.Delay > 0 || c.Drop > 0 || c.Reset > 0 }

// ParseNetChaos parses a network chaos spec as accepted by the serving
// CLIs: "none" (or empty) disables injection; otherwise comma-separated
// key:value (or key=value) pairs:
//
//	netdelay:<dur>  added per-round-trip latency
//	netdrop:<p>     per-attempt pre-delivery connection-failure probability
//	netreset:<p>    per-attempt post-delivery response-loss probability
//	netseed:<n>     fault schedule seed (default 1)
//
// Example: "netdelay:5ms,netdrop:0.05,netreset:0.02".
func ParseNetChaos(spec string) (NetChaos, error) {
	var cfg NetChaos
	if workload.Off(spec) {
		return cfg, nil
	}
	err := workload.Pairs("rpc", "net-chaos", workload.Fields(spec, ","), ":=",
		workload.NewKey("netdelay:<dur>", workload.PosDuration(&cfg.Delay)),
		workload.NewKey("netdrop:<p>", workload.Prob(&cfg.Drop)),
		workload.NewKey("netreset:<p>", workload.Prob(&cfg.Reset)),
		workload.NewKey("netseed:<n>", workload.Int(&cfg.Seed)))
	if err == nil && !cfg.Enabled() {
		err = fmt.Errorf("rpc: net-chaos spec %q injects nothing (set netdelay, netdrop, or netreset)", spec)
	}
	if err != nil {
		return NetChaos{}, err
	}
	return cfg, nil
}

// Transport wraps rt (nil = a fresh default transport) with the fault
// injector. The result plugs into ClientConfig.Transport.
func (c NetChaos) Transport(rt http.RoundTripper) http.RoundTripper {
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: 64}
	}
	if !c.Enabled() {
		return rt
	}
	seed := c.Seed
	if seed == 0 {
		seed = 1
	}
	return &chaosTransport{cfg: c, next: rt, rng: rand.New(rand.NewSource(seed))}
}

// chaosTransport implements the injection. Faults are classified by WHERE
// they strike relative to delivery, because that is exactly the line the
// client's retry policy must respect.
type chaosTransport struct {
	cfg  NetChaos
	next http.RoundTripper
	mu   sync.Mutex
	rng  *rand.Rand
}

func (t *chaosTransport) roll() (drop, reset bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rng.Float64() < t.cfg.Drop, t.rng.Float64() < t.cfg.Reset
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	drop, reset := t.roll()
	if err := t.sleep(req, t.cfg.Delay/2); err != nil {
		return nil, err
	}
	if drop {
		// Pre-delivery failure: shaped as a dial error so the client's
		// connect-error classifier (and thus its retry policy) treats it
		// exactly like a refused connection.
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errInjectedDrop}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if reset {
		// Post-delivery failure: the server processed the request, but
		// the response dies on the wire. Consume and drop the real
		// response so the exchange genuinely completed server-side.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &net.OpError{Op: "read", Net: "tcp", Err: errInjectedReset}
	}
	if err := t.sleep(req, t.cfg.Delay-t.cfg.Delay/2); err != nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// sleep waits d or until the request's context dies.
func (t *chaosTransport) sleep(req *http.Request, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-req.Context().Done():
		return req.Context().Err()
	}
}
