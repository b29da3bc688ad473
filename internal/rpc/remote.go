package rpc

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// statsTimeout bounds one /statsz read. It does not shrink with the probe
// period: a read that times out leaves the fleet folding an older body.
const statsTimeout = 2 * time.Second

// RemoteReplica is a fleet.Backend served by another process: the wire
// client dressed in the replica interface, so a Fleet routes to it —
// health-checked ejection, one-retry-on-crash, stats merging — exactly as
// it routes to an in-process live.Service.
//
// Semantics that keep the fleet's invariants intact across the wire:
//
//   - Submit errors arrive pre-mapped to the in-process sentinels
//     (connect failures and drain refusals unwrap to live.ErrReplicaDown),
//     so the fleet's retry predicate fires unchanged. The wire client makes
//     one attempt: the fleet is the retry layer, and its one retry goes to
//     another replica rather than the one that just failed.
//   - Failed() is backed by a /healthz prober (every 250ms) plus instant
//     demotion on a connect error or a draining reply, so routing stops
//     sending to a dead or draining process within a probe period.
//   - Snapshot() reads /statsz once — every tenant of one snapshot comes
//     from the same body — and falls back to the last body that landed when
//     the server is unreachable. Close takes a final read, and a closed
//     member's Snapshot is that body, because the fleet reads a removed
//     member's counters AFTER closing it. A crash between reads can lose the
//     final few counts from the fleet's merged view — the remote process's
//     own ledger remains exact, which is where conservation is asserted.
//   - A submit that provably never reached the server's ledger (a connect
//     error: the wire refused before delivery; or a draining reply: the
//     server refused before its backend counted it) appears in no ledger,
//     which would break the fleet's front-door identity
//     (fleet.FrontDoor.Balances).
//     The replica keeps a client-side overlay for exactly these: each
//     counts as Submitted and Failed in its tenant's part of the snapshot,
//     so the identity — and per-replica conservation — stay exact over a
//     lossy wire. Resets need no overlay (the server
//     executed and counted the query); a deadline that fires mid-flight is
//     genuinely ambiguous, and identity tests avoid it.
//   - Apart from that overlay, a tenant's part of the snapshot is its
//     server's own: the Stats and latency histogram /statsz reports, so
//     every fold above treats this member as it treats a local one. The wire
//     time shows in each Reply's Latency, not in the histogram.
type RemoteReplica struct {
	client *Client
	probe  time.Duration // /healthz period, and each probe's timeout

	tenants []string

	// wireLost counts submits per tenant that provably never reached the
	// server's ledger (connect errors, draining replies); they overlay the
	// fetched ledger as Submitted+Failed so fleet-level identities stay
	// exact.
	wireLost []atomic.Uint64
	// thresh is each tenant's offload threshold from the last /statsz body
	// that landed: what the fleet's size-aware router steers by.
	thresh []atomic.Int64

	failed atomic.Bool
	closed atomic.Bool

	statsMu   sync.Mutex
	lastStats StatsResponse

	stop chan struct{}
	done chan struct{}
}

// NewRemoteReplica dials target and wraps it in the replica interface. It
// fails if the server is unreachable: joining a fleet with a dead member
// is a misconfiguration, not a fault to route around.
func NewRemoteReplica(target string) (*RemoteReplica, error) {
	return newRemoteReplica(target, nil, 250*time.Millisecond)
}

// newRemoteReplica is NewRemoteReplica over a given transport (nil = the
// client's own) with the /healthz prober at the given period.
func newRemoteReplica(target string, transport http.RoundTripper, probe time.Duration) (*RemoteReplica, error) {
	client, err := NewClient(target, ClientConfig{MaxAttempts: 1, Transport: transport})
	if err != nil {
		return nil, err
	}
	r := &RemoteReplica{client: client, probe: probe, stop: make(chan struct{}), done: make(chan struct{})}
	st, err := r.statsz(true)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("rpc: remote replica %s unreachable: %w", target, err)
	}
	if len(st.Tenants) == 0 {
		client.Close()
		return nil, fmt.Errorf("rpc: remote replica %s reports no tenants", target)
	}
	for _, t := range st.Tenants {
		if t.Latency == nil {
			client.Close()
			return nil, fmt.Errorf("rpc: remote replica %s reports tenant %q without its latency histogram", target, t.Name)
		}
		r.tenants = append(r.tenants, t.Name)
	}
	r.wireLost = make([]atomic.Uint64, len(r.tenants))
	go r.prober()
	return r, nil
}

// prober polls /healthz, driving Failed() — the signal the fleet's router
// keys ejection off.
func (r *RemoteReplica) prober() {
	defer close(r.done)
	ticker := time.NewTicker(r.probe)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.probe)
		err := r.client.Healthz(ctx)
		cancel()
		r.failed.Store(err != nil)
	}
}

// Submit sends the query over the wire, mapping the fleet's tenant index
// to the wire's tenant name and the wire's failure taxonomy back to the
// in-process sentinels.
func (r *RemoteReplica) Submit(ctx context.Context, q live.Query) (live.Reply, error) {
	if r.closed.Load() {
		return live.Reply{}, live.ErrClosed
	}
	if q.Tenant < 0 || q.Tenant >= len(r.tenants) {
		return live.Reply{}, fmt.Errorf("rpc: tenant index %d outside [0, %d)", q.Tenant, len(r.tenants))
	}
	req := RecommendRequest{Candidates: q.Candidates, TopN: q.TopN, Tenant: r.tenants[q.Tenant]}
	start := time.Now()
	resp, err := r.client.Recommend(ctx, req)
	rtt := time.Since(start)
	if err != nil {
		var re *Error
		if errors.As(err, &re) && (re.Code == codeConnect || re.Code == CodeDraining) {
			// Don't wait out a probe period to stop routing at a corpse or
			// a draining server: neither takes new work.
			r.failed.Store(true)
			// The query reached no server-side ledger; count it here so the
			// fleet's merged view still conserves it.
			r.wireLost[q.Tenant].Add(1)
		}
		return live.Reply{}, err
	}
	reply := live.Reply{
		Latency:   rtt, // the replica's latency includes its wire
		BatchSize: resp.Batch,
		Offloaded: resp.Offloaded,
		Degraded:  resp.Degraded,
		Tenant:    q.Tenant,
	}
	if len(resp.Recs) > 0 {
		reply.Recs = make([]model.Ranked, len(resp.Recs))
		for i, rec := range resp.Recs {
			reply.Recs[i] = model.Ranked{Item: rec.Item, CTR: rec.CTR}
		}
	}
	return reply, nil
}

// statsz is the member's one /statsz read: with read set it fetches a body
// and keeps it if one lands, and either way it returns the last body that
// did. Reads are serialized, so a slow body cannot overwrite a newer one.
func (r *RemoteReplica) statsz(read bool) (StatsResponse, error) {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if !read {
		return r.lastStats, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
	defer cancel()
	st, err := r.client.Statsz(ctx)
	if err == nil {
		r.lastStats = st
		if r.thresh == nil { // the first body, read before the member joins a fleet
			r.thresh = make([]atomic.Int64, len(st.Tenants))
		}
		for i := range min(len(r.thresh), len(st.Tenants)) { // each fetched body is outside input
			r.thresh[i].Store(int64(st.Tenants[i].Stats.GPUThreshold))
		}
	}
	return r.lastStats, err
}

// OffloadThreshold is the tenant's offload threshold as of the last /statsz
// body that landed (0 = the server offloads none of its queries).
func (r *RemoteReplica) OffloadThreshold(tenant int) int { return int(r.thresh[tenant].Load()) }

// Snapshot is one /statsz body, tenant by tenant — the server's Stats and
// latency histogram — with the wire-lost overlay added: submits that
// provably never reached the server count as Submitted+Failed. Its scale
// and accelerator are the server's, as the fleet reads them at join.
func (r *RemoteReplica) Snapshot() live.Snapshot {
	sz, _ := r.statsz(!r.closed.Load())
	snap := live.Snapshot{Tenants: make([]live.TenantSnapshot, len(r.tenants)), Scale: sz.Scale, GPU: sz.GPU}
	for i := range snap.Tenants {
		t := &snap.Tenants[i]
		if i < len(sz.Tenants) { // each fetched body is outside input
			t.Stats = sz.Tenants[i].Stats
			if h := sz.Tenants[i].Latency; h != nil {
				t.Latency = *h
			}
		}
		lost := r.wireLost[i].Load()
		t.Submitted += lost
		t.Failed += lost
	}
	return snap
}

// Failed reports the prober's current verdict (true also immediately
// after any connect error on the submit path).
func (r *RemoteReplica) Failed() bool { return r.failed.Load() }

// Close detaches from the remote server: submits are refused, a final
// /statsz read lands if the wire allows (the fleet folds counters after
// Close), the prober stops, and idle connections drop. The remote process
// itself keeps serving — closing a handle is not a shutdown order.
func (r *RemoteReplica) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.statsz(true)
	close(r.stop)
	<-r.done
	r.client.Close()
	return nil
}

// Compile-time interface check: the wire replica must keep satisfying the
// fleet's transport interface.
var _ fleet.Backend = (*RemoteReplica)(nil)
