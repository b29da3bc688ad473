// Package fleet is the live fleet tier: a load-balancing front end that
// shards Submit traffic across N replica live.Services — the at-scale
// serving layer of the paper made live. The offline internal/cluster
// simulator answers fleet questions in simulation (Fig. 7 subsampling
// validity, Fig. 13 diurnal A/B); this package serves real concurrent
// traffic over a fleet of real services, one discrete replica per node,
// with the same node-heterogeneity model (cluster.SpeedFactors →
// live.Config.Scale) so a jitter level studied offline deploys unchanged.
//
// The front end is deliberately thin: each replica is a complete
// live.Service with its own executor lanes, online latency window, and
// (optionally) its own DeepRecSched AutoTune controller, exactly as each
// node in the paper's datacenter runs its own scheduler. The fleet adds
// three things on top:
//
//   - Routing. A pluggable Policy picks the serving replica per query.
//     Round-robin is the fairness baseline, least-loaded implements
//     join-shortest-queue over the front end's outstanding-query counts,
//     and size-aware steers the heavy tail of big queries to GPU-capable
//     replicas — the fleet-level analogue of the per-node offload
//     threshold.
//
//   - Aggregation. Stats takes one live.Snapshot per replica and folds
//     them — per replica, per tenant, fleet-wide — so the fleet-wide
//     p50/p95 are over the union of the replicas' latency windows, the live
//     counterpart of the paper's fleet-wide latency distributions.
//
//   - Membership. Replicas can be added, drained, and removed while the
//     fleet serves: draining excludes a replica from routing but lets its
//     in-flight queries finish, and removal blocks until the drain
//     completes, so membership changes never drop a query.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// ErrClosed is returned by Submit after Close has begun. It aliases
// live.ErrClosed so callers of the public Service need only one sentinel.
var ErrClosed = live.ErrClosed

// ErrLastReplica is returned by Drain and Remove when the operation would
// leave the fleet with no routable replica.
var ErrLastReplica = errors.New("fleet: cannot drain the last routable replica")

// ErrNoHealthyReplica is returned by Submit when every routable replica has
// been failed by fault injection: the fleet is alive but has nowhere to
// send the query. Distinct from ErrClosed so callers can tell an outage
// from a shutdown.
var ErrNoHealthyReplica = errors.New("fleet: no healthy routable replica")

// replica is one member: a serving Backend plus the front end's own routing
// state. The backend is a *live.Service for local (in-process) members and
// a wire transport (internal/rpc.RemoteReplica) for remote ones; routing,
// drain, and stats code below never distinguishes them. outstanding counts
// queries routed but not yet returned (the least-loaded signal); inflight
// guards the drain — Remove waits on it before closing the backend, so a
// membership change never races a Submit into a closed replica.
type replica struct {
	id       int
	svc      Backend
	cfg      live.Config // local members only: kept for chaos restart — a crashed replica is reborn from its own config
	local    bool        // started by this fleet from cfg (chaos and autoscale shrink apply only to these)
	hasGPU   bool
	speed    float64
	draining bool // guarded by the fleet's mu
	removing bool // guarded by the fleet's mu

	outstanding atomic.Int64
	tenantOut   []atomic.Int64 // per-tenant slice of outstanding, tenant-index order
	inflight    sync.WaitGroup
}

// healthy reports whether the replica can serve (not failed by chaos).
func (r *replica) healthy() bool { return !r.svc.Failed() }

// Fleet shards live queries across replica services. Create one with New,
// Submit from any number of goroutines, and Close it to drain every
// replica.
type Fleet struct {
	policy Policy

	mu       sync.RWMutex
	replicas []*replica // membership in ID order
	nextID   int
	closed   bool

	// Tenant set, fixed at construction from the first replica config:
	// every member must host the same tenants in the same order.
	tenants  []TenantInfo
	tenantly bool // the policy is tenant-aware (implements TenantPolicy)

	// Per-tenant fleet-wide interference controls and accounting:
	// tenantOut counts routed-but-unreturned queries per tenant across the
	// whole fleet, tenantCap the admission ceiling on that count (0 =
	// uncapped), and capShed the queries refused at the front door for
	// exceeding it (they never reach a replica, so they appear in no
	// replica ledger).
	tenantOut []atomic.Int64
	tenantCap []atomic.Int64
	capShed   []atomic.Uint64

	// Lifetime accounting for removed replicas, per tenant, folded into
	// Stats so the fleet's counters are monotone across membership changes.
	retired []live.Ledger

	// Front-door accounting, per tenant: every query entering the fleet
	// counts once here even when a replica failure makes it try two
	// replicas, so the fleet's external view stays exact while per-replica
	// counters stay per-replica truth (sum of replica Submitted ==
	// FrontSubmitted + Retried).
	frontSubmitted []atomic.Uint64
	retried        atomic.Uint64
	retry          atomic.Bool // one retry on ErrReplicaDown enabled

	// Elasticity and chaos lifetime counters.
	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64
	crashes    atomic.Uint64
	restarts   atomic.Uint64

	asStop, asDone chan struct{} // autoscaler lifecycle
	chStop, chDone chan struct{} // chaos-controller lifecycle
}

// New starts one live.Service per config and returns a serving Fleet.
// policy nil selects round-robin. Each replica's GPU capability and speed
// factor are read off its config (Scale 0 = nominal). On any replica
// construction error the already-started replicas are closed.
func New(cfgs []live.Config, policy Policy) (*Fleet, error) {
	if len(cfgs) < 1 {
		return nil, errors.New("fleet: need at least one replica config")
	}
	if policy == nil {
		policy = NewRoundRobin()
	}
	infos, err := tenantInfosFrom(cfgs[0])
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		policy:         policy,
		tenants:        infos,
		tenantOut:      make([]atomic.Int64, len(infos)),
		tenantCap:      make([]atomic.Int64, len(infos)),
		capShed:        make([]atomic.Uint64, len(infos)),
		retired:        make([]live.Ledger, len(infos)),
		frontSubmitted: make([]atomic.Uint64, len(infos)),
	}
	if tp, ok := policy.(TenantPolicy); ok {
		tp.BindTenants(infos)
		f.tenantly = true
	}
	for _, cfg := range cfgs {
		if _, err := f.add(cfg); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// tenantInfosFrom derives the fleet's tenant set from one replica config's
// resolved tenant list (live.Config.WithDefaults: a single-model config is
// the list of one tenant named ""): names and shares straight from the
// tenant configs, resource shapes from each tenant model's analytic profile.
// Shapes are normalized per dimension across the tenant set, then per tenant
// to sum to 1, so [1, 0] reads "all FC compute" and [0, 1] "all embedding
// traffic" relative to the fleet's own zoo.
func tenantInfosFrom(cfg live.Config) ([]TenantInfo, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	infos := make([]TenantInfo, len(cfg.Tenants))
	var maxFLOPs, maxBytes float64
	for i, tc := range cfg.Tenants {
		// Raw demand first; normalized in place below.
		p := model.BuildProfile(tc.Model.Cfg)
		infos[i] = TenantInfo{Name: tc.Name, Share: tc.Share, Shape: [2]float64{float64(p.TotalFLOPs()), float64(p.EmbBytes)}}
		maxFLOPs = max(maxFLOPs, infos[i].Shape[0])
		maxBytes = max(maxBytes, infos[i].Shape[1])
	}
	for i := range infos {
		var f, b float64
		if maxFLOPs > 0 {
			f = infos[i].Shape[0] / maxFLOPs
		}
		if maxBytes > 0 {
			b = infos[i].Shape[1] / maxBytes
		}
		if sum := f + b; sum > 0 {
			f, b = f/sum, b/sum
		}
		infos[i].Shape = [2]float64{f, b}
	}
	return infos, nil
}

// add starts one local replica from cfg and joins it to the routing set.
func (f *Fleet) add(cfg live.Config) (int, error) {
	svc, err := live.New(cfg)
	if err != nil {
		return 0, err
	}
	return f.join(svc, cfg, true, cfg.GPU != nil, svc.Scale())
}

// join adds a serving backend — local or remote — to the routing set. Every
// member must host the fleet's tenant set: same count, same names, same
// order. On any error the backend is closed (join took ownership).
func (f *Fleet) join(svc Backend, cfg live.Config, local, hasGPU bool, speed float64) (int, error) {
	hosted := svc.Snapshot().Tenants
	if len(hosted) != len(f.tenants) {
		svc.Close()
		return 0, fmt.Errorf("fleet: replica hosts %d tenants, fleet has %d", len(hosted), len(f.tenants))
	}
	for i := range f.tenants {
		if hosted[i].Tenant != f.tenants[i].Name {
			svc.Close()
			return 0, fmt.Errorf("fleet: replica tenant %d is %q, fleet has %q", i, hosted[i].Tenant, f.tenants[i].Name)
		}
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		svc.Close()
		return 0, ErrClosed
	}
	id := f.nextID
	f.nextID++
	f.replicas = append(f.replicas, &replica{
		id:        id,
		svc:       svc,
		cfg:       cfg,
		local:     local,
		hasGPU:    hasGPU,
		speed:     speed,
		tenantOut: make([]atomic.Int64, len(f.tenants)),
	})
	f.mu.Unlock()
	return id, nil
}

// Add starts a new replica from cfg and joins it to the routing set,
// returning its fleet-assigned ID. It is safe while the fleet serves.
func (f *Fleet) Add(cfg live.Config) (int, error) { return f.add(cfg) }

// Policy returns the routing policy's name.
func (f *Fleet) Policy() string { return f.policy.Name() }

// Size returns the number of routable (non-draining) replicas.
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.routable()
}

// routable counts non-draining replicas. Callers hold mu.
func (f *Fleet) routable() int {
	n := 0
	for _, r := range f.replicas {
		if !r.draining {
			n++
		}
	}
	return n
}

// find returns the replica with the given ID, or nil. Callers hold mu.
func (f *Fleet) find(id int) *replica {
	for _, r := range f.replicas {
		if r.id == id {
			return r
		}
	}
	return nil
}

// route picks the serving replica for a query of `size` items and pins it:
// the returned replica's outstanding count and in-flight group are already
// incremented, so a concurrent drain waits for this query. The caller must
// release both when the submission returns. Routing is health-checked:
// replicas failed by fault injection are ejected from the candidate set, so
// a crash diverts traffic instead of black-holing it.
func (f *Fleet) route(tenant, size int) (*replica, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return nil, ErrClosed
	}
	cands := make([]Candidate, 0, len(f.replicas))
	routable := make([]*replica, 0, len(f.replicas))
	any := false
	for _, r := range f.replicas {
		if r.draining {
			continue
		}
		any = true
		if !r.healthy() {
			continue
		}
		c := Candidate{
			ID:          r.id,
			Outstanding: int(r.outstanding.Load()),
			HasGPU:      r.hasGPU,
			Speed:       r.speed,
		}
		if f.tenantly {
			c.TenantOutstanding = make([]int, len(r.tenantOut))
			for i := range r.tenantOut {
				c.TenantOutstanding[i] = int(r.tenantOut[i].Load())
			}
		}
		cands = append(cands, c)
		routable = append(routable, r)
	}
	if len(routable) == 0 {
		if any {
			return nil, ErrNoHealthyReplica
		}
		return nil, ErrClosed
	}
	var idx int
	if tp, ok := f.policy.(TenantPolicy); ok {
		idx = tp.PickTenant(tenant, size, cands)
	} else {
		idx = f.policy.Pick(size, cands)
	}
	if idx < 0 || idx >= len(routable) {
		idx = 0
	}
	r := routable[idx]
	r.outstanding.Add(1)
	r.tenantOut[tenant].Add(1)
	f.tenantOut[tenant].Add(1)
	r.inflight.Add(1)
	return r, nil
}

// Submit routes one query to a replica chosen by the policy and blocks
// until it completes, ctx is cancelled, or the fleet closes. It returns
// the serving replica's ID alongside the reply and is safe for concurrent
// use from any number of goroutines.
//
// When retry-on-failure is enabled (SetRetry) a query aborted by a replica
// crash (live.ErrReplicaDown) is resubmitted exactly once; health-checked
// routing steers the retry away from the dead replica. The front-door
// counters record the query once regardless of how many replicas it tried.
func (f *Fleet) Submit(ctx context.Context, q live.Query) (live.Reply, int, error) {
	if q.Tenant < 0 || q.Tenant >= len(f.tenants) {
		return live.Reply{}, -1, fmt.Errorf("fleet: tenant %d outside [0, %d]", q.Tenant, len(f.tenants)-1)
	}
	f.frontSubmitted[q.Tenant].Add(1)
	// Per-tenant fleet-wide outstanding cap: the interference guard that
	// keeps one saturated tenant from occupying every execution slot the
	// fleet has. Cap-shed queries are refused at the front door — they
	// reach no replica, so they are counted here (CapShed) and nowhere
	// else.
	if limit := f.tenantCap[q.Tenant].Load(); limit > 0 && f.tenantOut[q.Tenant].Load() >= limit {
		f.capShed[q.Tenant].Add(1)
		return live.Reply{}, -1, live.ErrOverloaded
	}
	reply, id, err := f.submitOnce(ctx, q)
	if err != nil && errors.Is(err, live.ErrReplicaDown) && f.retry.Load() && ctx.Err() == nil {
		f.retried.Add(1)
		reply, id, err = f.submitOnce(ctx, q)
	}
	return reply, id, err
}

// submitOnce is one routing + submission attempt.
func (f *Fleet) submitOnce(ctx context.Context, q live.Query) (live.Reply, int, error) {
	r, err := f.route(q.Tenant, q.Candidates)
	if err != nil {
		return live.Reply{}, -1, err
	}
	defer r.inflight.Done()
	defer r.outstanding.Add(-1)
	defer r.tenantOut[q.Tenant].Add(-1)
	defer f.tenantOut[q.Tenant].Add(-1)
	reply, err := r.svc.Submit(ctx, q)
	return reply, r.id, err
}

// SetTenantCap bounds one tenant's fleet-wide outstanding work: once the
// tenant has max routed-but-unreturned queries in flight, further arrivals
// are refused with live.ErrOverloaded at the front door (0 restores
// uncapped). This is the fleet-level interference control — coarser than
// per-replica admission gates, it bounds what the tenant may occupy of the
// shared pool as a whole.
func (f *Fleet) SetTenantCap(tenant, max int) error {
	if tenant < 0 || tenant >= len(f.tenants) {
		return fmt.Errorf("fleet: tenant %d outside [0, %d]", tenant, len(f.tenants)-1)
	}
	if max < 0 {
		return fmt.Errorf("fleet: negative tenant cap %d", max)
	}
	f.tenantCap[tenant].Store(int64(max))
	return nil
}

// TenantCount returns the number of tenants the fleet serves.
func (f *Fleet) TenantCount() int { return len(f.tenants) }

// TenantIndex maps a tenant name to its index in tenant order.
func (f *Fleet) TenantIndex(name string) (int, bool) {
	for i, ti := range f.tenants {
		if ti.Name == name {
			return i, true
		}
	}
	return 0, false
}

// SetRetry enables or disables the fleet's one-retry-on-crash behavior.
func (f *Fleet) SetRetry(on bool) { f.retry.Store(on) }

// Drain excludes a replica from routing while letting its in-flight
// queries finish; the replica keeps running (its AutoTune controller
// included) until Remove. Draining an already-draining replica is a no-op;
// draining the last routable replica is refused.
func (f *Fleet) Drain(id int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.find(id)
	if r == nil {
		return fmt.Errorf("fleet: unknown replica %d", id)
	}
	if r.draining {
		return nil
	}
	if f.routable() == 1 {
		return ErrLastReplica
	}
	r.draining = true
	return nil
}

// Remove drains a replica (if it is not already draining), waits for its
// in-flight queries to complete, closes it, and retires it from the fleet.
// Its lifetime counters fold into the fleet totals. Remove blocks for the
// duration of the drain; no query is dropped.
func (f *Fleet) Remove(id int) error {
	f.mu.Lock()
	r := f.find(id)
	if r == nil {
		f.mu.Unlock()
		return fmt.Errorf("fleet: unknown replica %d", id)
	}
	if r.removing {
		f.mu.Unlock()
		return fmt.Errorf("fleet: replica %d is already being removed", id)
	}
	if !r.draining {
		if f.routable() == 1 {
			f.mu.Unlock()
			return ErrLastReplica
		}
		r.draining = true
	}
	r.removing = true
	f.mu.Unlock()

	r.inflight.Wait() // every routed query has returned
	// The replica is retired even if Close reports an error (it cannot,
	// today): stranding a half-removed member would make Remove
	// unretryable and Stats report a zombie.
	err := r.svc.Close()

	last := r.svc.Snapshot().Tenants
	f.mu.Lock()
	for ti := range f.retired {
		f.retired[ti] = f.retired[ti].Add(last[ti].Ledger)
	}
	for i, cur := range f.replicas {
		if cur == r {
			f.replicas = append(f.replicas[:i], f.replicas[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	return err
}

// SetBatchSize sets the per-request batch size on every replica (the
// manual counterpart of per-replica AutoTune, which may re-diverge them).
func (f *Fleet) SetBatchSize(b int) error {
	if b < 1 || b > live.MaxBatchSize {
		return fmt.Errorf("fleet: batch size %d outside [1, %d]", b, live.MaxBatchSize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, r := range f.replicas {
		if err := r.svc.SetBatchSize(b); err != nil {
			return err
		}
	}
	return nil
}

// SetGPUThreshold sets the offload threshold on every GPU-capable replica;
// CPU-only replicas are untouched. It fails when no replica has an
// accelerator.
func (f *Fleet) SetGPUThreshold(thr int) error {
	if thr < 0 || thr > workload.MaxQuerySize {
		return fmt.Errorf("fleet: GPU threshold %d outside [0, %d]", thr, workload.MaxQuerySize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	applied := false
	for _, r := range f.replicas {
		if !r.hasGPU {
			continue
		}
		if err := r.svc.SetGPUThreshold(thr); err != nil {
			return err
		}
		applied = true
	}
	if !applied {
		return errors.New("fleet: no GPU-capable replica")
	}
	return nil
}

// BatchSize returns the first replica's current batch size. Replicas share
// knob settings through SetBatchSize, but per-replica AutoTune may diverge
// them; Stats().Replicas carries every replica's value.
func (f *Fleet) BatchSize() int { return f.Stats().BatchSize }

// GPUThreshold returns the first GPU-capable replica's current offload
// threshold (0 when none has an accelerator).
func (f *Fleet) GPUThreshold() int { return f.Stats().GPUThreshold }

// ReplicaStats is one replica's slice of the fleet snapshot: its identity
// and routing state alongside its full live.Stats.
type ReplicaStats struct {
	// ID is the fleet-assigned replica identity (stable across membership
	// changes; IDs of removed replicas are not reused).
	ID int
	// Speed is the replica's service-time scale factor (1 = nominal).
	Speed float64
	// HasGPU reports whether the replica has the accelerator offload lane.
	HasGPU bool
	// Draining reports whether the replica is excluded from routing.
	Draining bool
	// Failed reports whether the replica has been crashed by fault
	// injection (ejected from routing until its chaos restart).
	Failed bool
	// Outstanding is the number of routed-but-unreturned queries.
	Outstanding int
	// Stats is the replica's own online snapshot.
	live.Stats
}

// TenantStats is one tenant's fleet-merged slice of the snapshot: counters
// summed over every current member plus the tenant's share of removed
// replicas, percentiles over the union of the members' per-tenant latency
// windows, and knob/SLA fields from the first member (per-replica AutoTune
// may diverge knobs; Replicas carries each replica's own).
type TenantStats struct {
	// Name is the tenant's name; Share its configured traffic weight.
	Name  string
	Share float64
	// Shape is the tenant's normalized resource-demand vector (FC-FLOP
	// share, embedding-byte share) — what shape-aware placement keys on.
	Shape [2]float64
	// Outstanding is the tenant's fleet-wide routed-but-unreturned count;
	// Cap the configured ceiling on it (0 = uncapped); CapShed the
	// lifetime count of queries refused at the front door for exceeding
	// it. CapShed queries reached no replica, so they are not in the
	// merged Stats below: tenant conservation at the fleet level is
	// FrontSubmitted(t) == Stats.Submitted + CapShed (+ routing errors).
	Outstanding int
	Cap         int
	CapShed     uint64
	// Stats is the tenant's merged online snapshot.
	live.Stats
}

// Stats is a fleet-wide online snapshot: one live.Stats-shaped aggregate
// over the members (as TenantStats is per tenant) plus what only a fleet
// has — routing, membership, front-door, elasticity and chaos state.
type Stats struct {
	// Policy is the routing policy's name.
	Policy string
	// Size is the number of routable (non-draining) replicas.
	Size int
	// Stats is the fleet-merged snapshot. Its Ledger is the fleet-lifetime
	// sum over current members plus every removed replica's final counters
	// (so Submitted is the per-replica sum; FrontSubmitted below counts
	// each query once). GPUQueryShare is GPUQueries over Submitted; the
	// other ratios are recomputed from the summed ledger, so they are exact
	// fleet-wide rates, not averages of per-replica rates. P50 / P95 are
	// computed over the union of the replicas' latency windows — the live
	// counterpart of the paper's fleet-wide latency distribution. SLA is
	// the replicas' shared target, Queued the summed admission-queue
	// depth, BatchSize / DegradeLevel the first replica's and GPUThreshold
	// the first GPU-capable replica's (per-replica AutoTune may diverge
	// them; Replicas carries each replica's own).
	live.Stats
	// FrontSubmitted counts queries entering the fleet's front door —
	// each query once, however many replicas it tried — and Retried the
	// crash-triggered second attempts, so sum(replica Submitted) ==
	// FrontSubmitted + Retried.
	FrontSubmitted, Retried uint64
	// ScaleUps / ScaleDowns count autoscaler membership moves; Crashes /
	// Restarts count chaos-injected replica failures and their recoveries.
	ScaleUps, ScaleDowns uint64
	Crashes, Restarts    uint64
	// Healthy is the number of routable replicas that are not failed.
	Healthy int
	// Replicas holds the per-replica snapshots in ID order.
	Replicas []ReplicaStats
	// Tenants holds the per-tenant fleet-merged snapshots in tenant order
	// (one entry, name "", on a single-model fleet).
	Tenants []TenantStats
}

// snapshots takes one Snapshot per member and folds each tenant's parts
// across them, plus the retired ledger, into that tenant's fleet-wide
// snapshot. Callers hold mu.
func (f *Fleet) snapshots() (members [][]live.TenantSnapshot, merged []live.TenantSnapshot) {
	members = make([][]live.TenantSnapshot, len(f.replicas))
	for i, r := range f.replicas {
		members[i] = r.svc.Snapshot().Tenants
	}
	merged = make([]live.TenantSnapshot, len(f.tenants))
	parts := make([]live.TenantSnapshot, len(members)+1)
	for ti, info := range f.tenants {
		for i, m := range members {
			parts[i] = m[ti]
		}
		parts[len(members)] = live.TenantSnapshot{Stats: live.Stats{Tenant: info.Name, Ledger: f.retired[ti]}}
		for i := range parts {
			// The fleet states GPUQueryShare over Submitted.
			parts[i].Admitted = parts[i].Submitted
		}
		merged[ti] = live.Fold(parts)
	}
	return members, merged
}

// Stats returns a fleet-wide online snapshot. Each member's tenants fold
// into its ReplicaStats, each tenant's merged snapshot is its TenantStats,
// and those fold into the fleet-wide aggregate — which is therefore the sum
// of the tenants reported with it, percentiles over the union of every
// replica's latency window.
func (f *Fleet) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	members, merged := f.snapshots()
	st := Stats{
		Policy:     f.policy.Name(),
		Size:       f.routable(),
		Stats:      live.Fold(merged).Stats,
		Retried:    f.retried.Load(),
		ScaleUps:   f.scaleUps.Load(),
		ScaleDowns: f.scaleDowns.Load(),
		Crashes:    f.crashes.Load(),
		Restarts:   f.restarts.Load(),
		Replicas:   make([]ReplicaStats, len(f.replicas)),
		Tenants:    make([]TenantStats, len(f.tenants)),
	}
	// The fleet-wide aggregate names no tenant, even when there is only one,
	// and its threshold is the first GPU-capable replica's.
	st.Tenant, st.Share, st.GPUThreshold = "", 0, 0
	gpuSeen := false
	for i, r := range f.replicas {
		failed := r.svc.Failed()
		if !r.draining && !failed {
			st.Healthy++
		}
		st.Replicas[i] = ReplicaStats{
			ID:          r.id,
			Speed:       r.speed,
			HasGPU:      r.hasGPU,
			Draining:    r.draining,
			Failed:      failed,
			Outstanding: int(r.outstanding.Load()),
			Stats:       live.Fold(members[i]).Stats,
		}
		if r.hasGPU && !gpuSeen {
			st.GPUThreshold, gpuSeen = st.Replicas[i].GPUThreshold, true
		}
	}
	for ti, info := range f.tenants {
		st.FrontSubmitted += f.frontSubmitted[ti].Load()
		st.Tenants[ti] = TenantStats{
			Name:        info.Name,
			Share:       info.Share,
			Shape:       info.Shape,
			Outstanding: int(f.tenantOut[ti].Load()),
			Cap:         int(f.tenantCap[ti].Load()),
			CapShed:     f.capShed[ti].Load(),
			Stats:       merged[ti].Stats,
		}
	}
	return st
}

// Close stops accepting queries, then closes every replica concurrently:
// queries executing on a lane finish, queries still parked in an admission
// queue are flushed with live.ErrShutdown (a saturated fleet closes in
// bounded time instead of serving its backlog), and Close returns once every
// routed Submit has returned. Close is idempotent; concurrent Submits either
// finish normally or observe ErrClosed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	members := append([]*replica(nil), f.replicas...)
	asStop, asDone := f.asStop, f.asDone
	chStop, chDone := f.chStop, f.chDone
	f.mu.Unlock()

	// Stop the controllers first so no membership change races the drain.
	if asStop != nil {
		close(asStop)
		<-asDone
	}
	if chStop != nil {
		close(chStop)
		<-chDone
	}

	errs := make([]error, len(members))
	var wg sync.WaitGroup
	wg.Add(len(members))
	for i, r := range members {
		go func(i int, r *replica) {
			defer wg.Done()
			errs[i] = r.svc.Close()
			r.inflight.Wait()
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
