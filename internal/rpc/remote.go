package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
)

// RemoteConfig parameterizes a RemoteReplica. The zero value works.
type RemoteConfig struct {
	// Client tunes the underlying wire client. MaxAttempts defaults to 1
	// here (not the client library's 3): the FLEET is the retry layer for
	// replica members — its one-retry-on-crash policy re-routes to a
	// different replica, which beats re-hammering the one that just
	// failed.
	Client ClientConfig
	// ProbeInterval is the /healthz polling period backing Failed()
	// (default 250ms). ProbeTimeout bounds each probe (default
	// ProbeInterval).
	ProbeInterval, ProbeTimeout time.Duration
	// StatsTTL bounds how stale the cached /statsz body behind Snapshot()
	// may be (default 100ms).
	StatsTTL time.Duration
}

// RemoteReplica is a fleet.Backend served by another process: the wire
// client dressed in the replica interface, so a Fleet routes to it —
// health-checked ejection, one-retry-on-crash, stats merging — exactly as
// it routes to an in-process live.Service.
//
// Semantics that keep the fleet's invariants intact across the wire:
//
//   - Submit errors arrive pre-mapped to the in-process sentinels
//     (connect failures and drain refusals unwrap to live.ErrReplicaDown),
//     so the fleet's retry predicate fires unchanged.
//   - Failed() is backed by a /healthz prober plus instant demotion on a
//     connect error, so routing stops sending to a dead process within a
//     probe period.
//   - Snapshot() is built from one TTL-cached /statsz body — every tenant
//     of one snapshot comes from the same fetch — falling back to the last
//     good one when the server is unreachable; Close caches a final body
//     first, because the fleet reads a removed member's counters AFTER
//     closing it. A crash between fetches can lose the final few counts
//     from the fleet's merged view — the remote process's own ledger
//     remains exact, which is where conservation is asserted.
//   - A submit that provably never reached the server (connect error: the
//     wire refused before delivery) appears in no server-side ledger, which
//     would break the fleet's front-door identity sum(replica Submitted) ==
//     FrontSubmitted + Retried. The replica keeps a client-side overlay for
//     exactly these: each counts as Submitted and Failed in its tenant's
//     part of the snapshot, so the identity — and per-replica conservation
//     — stay exact over a lossy wire. Resets need no overlay (the server
//     executed and counted the query); a deadline that fires mid-flight is
//     genuinely ambiguous, and identity tests avoid it.
//   - The snapshot's samples are client-side measured RTTs, not the
//     server's own windows, and once a tenant has any its percentiles are
//     over them: to the routing tier, the wire is part of the replica's
//     latency, and load-aware policies should see it.
type RemoteReplica struct {
	client *Client
	cfg    RemoteConfig

	tenants []string
	lat     []*stats.Window // client-observed RTTs, per tenant

	// wireLost counts submits per tenant that provably never reached the
	// server (connect errors); they overlay the fetched ledger as
	// Submitted+Failed so fleet-level identities stay exact.
	wireLost []atomic.Uint64

	failed atomic.Bool
	closed atomic.Bool

	statsMu   sync.Mutex
	statsAt   time.Time
	lastStats StatsResponse

	stop chan struct{}
	done chan struct{}
}

// NewRemoteReplica dials target and wraps it in the replica interface. It
// fails if the server is unreachable: joining a fleet with a dead member
// is a misconfiguration, not a fault to route around.
func NewRemoteReplica(target string, cfg RemoteConfig) (*RemoteReplica, error) {
	if cfg.Client.MaxAttempts == 0 {
		cfg.Client.MaxAttempts = 1
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval
	}
	if cfg.StatsTTL <= 0 {
		cfg.StatsTTL = 100 * time.Millisecond
	}
	client, err := NewClient(target, cfg.Client)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := client.Statsz(ctx)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("rpc: remote replica %s unreachable: %w", target, err)
	}
	r := &RemoteReplica{
		client:    client,
		cfg:       cfg,
		lastStats: st,
		statsAt:   time.Now(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, t := range st.Tenants {
		r.tenants = append(r.tenants, t.Name)
	}
	if len(r.tenants) == 0 {
		// Single-model server: one anonymous tenant, as in live.Config.WithDefaults.
		r.tenants = []string{""}
	}
	for range r.tenants {
		r.lat = append(r.lat, stats.NewWindow(512))
	}
	r.wireLost = make([]atomic.Uint64, len(r.tenants))
	go r.prober()
	return r, nil
}

// Client exposes the underlying wire client (for its Stats ledger).
func (r *RemoteReplica) Client() *Client { return r.client }

// prober polls /healthz, driving Failed() — the signal the fleet's router
// keys ejection off.
func (r *RemoteReplica) prober() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
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
		if errors.As(err, &re) && re.Code == codeConnect {
			// Don't wait out a probe period to stop routing at a corpse.
			r.failed.Store(true)
			// The query reached no server-side ledger; count it here so the
			// fleet's merged view still conserves it.
			r.wireLost[q.Tenant].Add(1)
		}
		return live.Reply{}, err
	}
	r.lat[q.Tenant].Add(rtt.Seconds())
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

// statsz returns the cached /statsz snapshot, refreshing it when older
// than the TTL and the server is reachable; otherwise the last good
// snapshot serves (a dead replica's lifetime counters do not regress to
// zero — the fleet folds them on removal).
func (r *RemoteReplica) statsz() StatsResponse {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if r.closed.Load() || time.Since(r.statsAt) < r.cfg.StatsTTL {
		return r.lastStats
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
	defer cancel()
	st, err := r.client.Statsz(ctx)
	if err == nil {
		r.lastStats = st
	}
	r.statsAt = time.Now()
	return r.lastStats
}

// Snapshot lays the client's view over one fetched /statsz body, tenant by
// tenant: submits that provably never reached the server count as
// Submitted+Failed, and once RTTs have been seen the client-observed
// percentiles replace the server-measured ones — the wire is part of this
// replica's service time from where the fleet stands. GPUQueryShare's
// denominator does not cross the wire; folds above a remote member state it
// over Submitted, as the fleet does.
func (r *RemoteReplica) Snapshot() live.Snapshot {
	sz := r.statsz()
	snap := live.Snapshot{Tenants: make([]live.TenantSnapshot, len(r.tenants)), Scale: sz.Scale}
	for i := range snap.Tenants {
		t := &snap.Tenants[i]
		t.Stats = sz.Service // single-model server: the anonymous tenant is the whole service
		if i < len(sz.Tenants) {
			t.Stats = sz.Tenants[i].Stats
		}
		lost := r.wireLost[i].Load()
		t.Submitted += lost
		t.Failed += lost
		t.Admitted = t.Submitted
		if rtts := r.lat[i].Snapshot(); len(rtts) > 0 {
			t.SetSamples(rtts)
		}
	}
	return snap
}

// SetBatchSize applies the knob on the remote server.
func (r *RemoteReplica) SetBatchSize(b int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := r.client.SetKnobs(ctx, b, -1)
	return err
}

// SetGPUThreshold applies the knob on the remote server.
func (r *RemoteReplica) SetGPUThreshold(thr int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := r.client.SetKnobs(ctx, -1, thr)
	return err
}

// Failed reports the prober's current verdict (true also immediately
// after any connect error on the submit path).
func (r *RemoteReplica) Failed() bool { return r.failed.Load() }

// Close detaches from the remote server: a final stats snapshot is cached
// (the fleet folds counters after Close), the prober stops, and idle
// connections drop. The remote process itself keeps serving — closing a
// handle is not a shutdown order.
func (r *RemoteReplica) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	// Final fetch before the cache freezes, so the folded counters are as
	// complete as the wire allows.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	st, err := r.client.Statsz(ctx)
	cancel()
	if err == nil {
		r.statsMu.Lock()
		r.lastStats = st
		r.statsAt = time.Now()
		r.statsMu.Unlock()
	}
	close(r.stop)
	<-r.done
	r.client.Close()
	return nil
}

// Compile-time interface check: the wire replica must keep satisfying the
// fleet's transport interface.
var _ fleet.Backend = (*RemoteReplica)(nil)
