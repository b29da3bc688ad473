// Package fleet is the live fleet tier: a load-balancing front end that
// shards Submit traffic across N replica live.Services — the at-scale
// serving layer of the paper made live. The offline fleet in
// internal/experiments answers fleet questions in simulation (Fig. 7
// subsampling validity, Fig. 13 diurnal A/B); this package serves real
// concurrent traffic over a fleet of real services, one discrete replica per
// node, with the same node-heterogeneity model (platform.SpeedFactors →
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
//     and size-aware steers each query to a replica whose own offload
//     threshold for the query's tenant would send it to the accelerator —
//     the per-node offload threshold DeepRecSched tunes, read per replica,
//     so the router keeps no threshold of its own.
//
//   - Aggregation. Stats takes one live.Snapshot per replica and folds
//     them — per replica, per tenant, fleet-wide — so the fleet-wide
//     p50/p95 are over the sum of the replicas' latency histograms, the
//     live counterpart of the paper's fleet-wide latency distributions.
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
// drain, and stats code below never distinguishes them. Its identity — speed
// and accelerator — is read from the snapshot it joins with, for local and
// remote members alike. tenantOut counts, per tenant, the queries routed to
// it but not yet returned: the fleet's only outstanding-query state, so every
// load figure a pick, the tenant cap or Stats reads is a sum of these
// counters. inflight guards the drain — Remove waits on it before closing
// the backend, so a membership change never races a Submit into a closed
// replica.
type replica struct {
	id       int
	svc      Backend
	cfg      live.Config // local members only: the chaos-restart recipe (a crashed replica is reborn from its own config)
	local    bool        // started by this fleet from cfg (chaos and autoscale shrink apply only to these)
	off      offloader   // the member's offload threshold source, resolved at join (nil = offloads nothing)
	speed    float64
	gpu      bool
	draining bool // guarded by the fleet's mu
	removing bool // guarded by the fleet's mu

	tenantOut []atomic.Int64 // tenant-index order
	inflight  sync.WaitGroup
}

// healthy reports whether the replica can serve (not failed by chaos).
func (r *replica) healthy() bool { return !r.svc.Failed() }

// victim reports whether the fleet's own controllers may act on the
// replica — chaos faults it, the autoscaler shrinks it: it is local (the
// fleet started it, and cannot reach inside another process), routable and
// healthy. Remove sets draining before removing, so a member being removed
// is never a victim.
func (r *replica) victim() bool { return r.local && !r.draining && r.healthy() }

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
	tenants []TenantInfo

	// tenantCap is each tenant's fleet-wide interference control: the
	// admission ceiling on its outstanding queries summed over every member
	// (0 = uncapped).
	tenantCap []atomic.Int64

	// Lifetime accounting for removed replicas, per tenant, folded into
	// Stats so the fleet's counters are monotone across membership changes.
	retired []live.Ledger

	// doors holds each tenant's front-door counters (FrontDoor), kept
	// beside the member ledgers and never folded into them.
	doors []door
	retry atomic.Bool // one retry on ErrReplicaDown enabled

	// Elasticity and chaos lifetime counters.
	scaleUps   atomic.Uint64
	scaleDowns atomic.Uint64
	crashes    atomic.Uint64
	restarts   atomic.Uint64

	asStop, asDone chan struct{} // autoscaler lifecycle
	chStop, chDone chan struct{} // chaos-controller lifecycle
}

// New starts one live.Service per config and returns a serving Fleet.
// policy nil selects round-robin. Each replica's accelerator and speed
// factor are read from the snapshot it joins with (Scale 0 = nominal). On
// any replica construction error the already-started replicas are closed.
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
		policy:    policy,
		tenants:   infos,
		tenantCap: make([]atomic.Int64, len(infos)),
		retired:   make([]live.Ledger, len(infos)),
		doors:     make([]door, len(infos)),
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
// the list of one tenant named after its model): names and shares from the
// tenant configs, model names, table rows and resource shapes (model.Shapes)
// from the tenant models' configs and analytic profiles, relative to the
// fleet's own tenant set.
func tenantInfosFrom(cfg live.Config) ([]TenantInfo, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	profs := make([]model.Profile, len(cfg.Tenants))
	for i, tc := range cfg.Tenants {
		profs[i] = model.BuildProfile(tc.Model.Cfg)
	}
	infos := make([]TenantInfo, len(cfg.Tenants))
	for i, shape := range model.Shapes(profs) {
		tc, mc := cfg.Tenants[i], cfg.Tenants[i].Model.Cfg
		infos[i] = TenantInfo{Name: tc.Name, Model: mc.Name, Share: tc.Share, Shape: shape}
		if mc.NumTables > 0 {
			infos[i].TableRows = mc.TableRows
		}
	}
	return infos, nil
}

// add starts one local replica from cfg and joins it to the routing set.
func (f *Fleet) add(cfg live.Config) (int, error) {
	svc, err := live.New(cfg)
	if err != nil {
		return 0, err
	}
	return f.join(svc, cfg, true)
}

// join adds a serving backend — local or remote — to the routing set. Every
// member must host the fleet's tenant set: same count, same names, same
// order. The member's node speed is the Scale of the one snapshot join
// takes (≤ 0 reads as nominal, 1) and its accelerator that snapshot's GPU,
// as tenants are read from it; its offload threshold is read through
// the backend's offloader surface, or is 0 without one. On any error the
// backend is closed (join took ownership).
func (f *Fleet) join(svc Backend, cfg live.Config, local bool) (int, error) {
	snap := svc.Snapshot()
	hosted, speed := snap.Tenants, snap.Scale
	if speed <= 0 {
		speed = 1
	}
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
	off, _ := svc.(offloader)
	id := f.nextID
	f.nextID++
	f.replicas = append(f.replicas, &replica{
		id:        id,
		svc:       svc,
		cfg:       cfg,
		local:     local,
		off:       off,
		speed:     speed,
		gpu:       snap.GPU,
		tenantOut: make([]atomic.Int64, len(f.tenants)),
	})
	f.mu.Unlock()
	return id, nil
}

// Add starts a new replica from cfg and joins it to the routing set,
// returning its fleet-assigned ID. It is safe while the fleet serves.
func (f *Fleet) Add(cfg live.Config) (int, error) { return f.add(cfg) }

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
// the returned replica's tenantOut[tenant] and in-flight group are already
// incremented, so a concurrent drain waits for this query. The caller must
// release both when the submission returns. Each member's counters are
// loaded once, and the pick's Outstanding, TenantOutstanding and the cap
// are all summed from those loads, so they agree. limit > 0 is the tenant's
// cap: while the tenant holds limit queries summed over every member
// (draining ones still hold theirs), the query is refused with
// live.ErrOverloaded, ahead of every other refusal. Routing is
// health-checked: replicas failed by fault injection are ejected from the
// candidate set, so a crash diverts traffic instead of black-holing it.
func (f *Fleet) route(tenant, size int, limit int64) (*replica, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	nt := len(f.tenants)
	cands := make([]Candidate, 0, len(f.replicas))
	routable := make([]*replica, 0, len(f.replicas))
	out := make([]int, len(f.replicas)*nt) // every member's tenantOut row
	held, any := int64(0), false
	for _, r := range f.replicas {
		c := Candidate{ID: r.id, Speed: r.speed, TenantOutstanding: out[:nt:nt]}
		out = out[nt:]
		for i := range c.TenantOutstanding {
			c.TenantOutstanding[i] = int(r.tenantOut[i].Load())
			c.Outstanding += c.TenantOutstanding[i]
		}
		held += int64(c.TenantOutstanding[tenant])
		if r.draining {
			continue
		}
		any = true
		if !r.healthy() {
			continue
		}
		if r.off != nil {
			c.Threshold = r.off.OffloadThreshold(tenant)
		}
		cands = append(cands, c)
		routable = append(routable, r)
	}
	switch {
	case limit > 0 && held >= limit:
		return nil, live.ErrOverloaded
	case f.closed || !any:
		return nil, ErrClosed
	case len(routable) == 0:
		return nil, ErrNoHealthyReplica
	}
	idx := f.policy.Pick(tenant, size, f.tenants, cands)
	if idx < 0 || idx >= len(routable) {
		idx = 0
	}
	r := routable[idx]
	r.tenantOut[tenant].Add(1)
	r.inflight.Add(1)
	return r, nil
}

// Submit routes one query to a replica chosen by the policy and blocks
// until it completes, ctx is cancelled, or the fleet closes. It returns
// the serving replica's ID alongside the reply and is safe for concurrent
// use from any number of goroutines.
//
// The first attempt is held to the tenant's fleet-wide cap (SetTenantCap):
// the interference guard that keeps one saturated tenant from occupying
// every execution slot the fleet has. A cap-shed query reaches no replica,
// so it is counted at the front door (CapShed) and nowhere else.
//
// When retry-on-failure is enabled (SetRetry) a query aborted by a replica
// crash (live.ErrReplicaDown) is resubmitted exactly once, past the cap it
// was already admitted under; health-checked routing steers the retry away
// from the dead replica. The front-door counters record the query once
// regardless of how many replicas it tried.
func (f *Fleet) Submit(ctx context.Context, q live.Query) (live.Reply, int, error) {
	if err := q.Check(len(f.tenants)); err != nil {
		return live.Reply{}, -1, err
	}
	d := &f.doors[q.Tenant]
	d.submitted.Add(1)
	reply, id, err := f.submitOnce(ctx, q, d, f.tenantCap[q.Tenant].Load())
	if err != nil && errors.Is(err, live.ErrReplicaDown) && f.retry.Load() && ctx.Err() == nil {
		d.retried.Add(1)
		reply, id, err = f.submitOnce(ctx, q, d, 0)
	}
	return reply, id, err
}

// submitOnce is one routing + submission attempt under the tenant cap limit
// (0 = none). An attempt the cap refuses counts in d's CapShed; one that
// otherwise reaches no member's ledger — the route refused it, or the member
// was already closed — counts in d's Unrouted.
func (f *Fleet) submitOnce(ctx context.Context, q live.Query, d *door, limit int64) (live.Reply, int, error) {
	r, err := f.route(q.Tenant, q.Candidates, limit)
	if err != nil {
		if err == live.ErrOverloaded {
			d.capShed.Add(1)
		} else {
			d.unrouted.Add(1)
		}
		return live.Reply{}, -1, err
	}
	defer r.inflight.Done()
	defer r.tenantOut[q.Tenant].Add(-1)
	reply, err := r.svc.Submit(ctx, q)
	if err != nil && errors.Is(err, live.ErrClosed) {
		d.unrouted.Add(1)
	}
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

// FrontDoor is a fleet's front-door accounting for one tenant, or summed
// over tenants: what happened to the queries the fleet took in, kept beside
// the ledger folded from its members and never written into it.
type FrontDoor struct {
	// FrontSubmitted counts queries entering the front door, each once
	// however many replicas it tried; Retried the crash-triggered second
	// attempts (SetRetry).
	FrontSubmitted, Retried uint64
	// CapShed counts queries refused at the front door for exceeding the
	// tenant's cap (SetTenantCap): they reach no replica.
	CapShed uint64
	// Unrouted counts attempts that reached no member's ledger: the route
	// refused them (ErrClosed, ErrNoHealthyReplica), or the member they were
	// routed to answered live.ErrClosed.
	Unrouted uint64
}

// Balances reports the front-door identity against the ledger folded
// under the same front door: every query taken in, and every retry, is an
// attempt, and every attempt is in a member's ledger, cap-shed, or
// unrouted — FrontSubmitted + Retried == Submitted + CapShed + Unrouted.
// Like Ledger.Conserved it holds once the fleet is quiescent. Over a member
// that is itself a fleet, that member's ledger counts its own attempts, not
// the queries this front door sent it.
func (d FrontDoor) Balances(l live.Ledger) bool {
	return d.FrontSubmitted+d.Retried == l.Submitted+d.CapShed+d.Unrouted
}

// door is one tenant's live front-door counters, read as a FrontDoor.
type door struct{ submitted, retried, capShed, unrouted atomic.Uint64 }

// TenantStats is one tenant's fleet-merged slice of the snapshot: counters
// summed over every current member plus the tenant's share of removed
// replicas, percentiles over the sum of the members' per-tenant latency
// histograms, and knob/SLA fields from the first member (per-replica AutoTune
// may diverge knobs; Replicas carries each replica's own). Its Stats name the
// tenant and carry the fleet's configured Share.
type TenantStats struct {
	// Model is the zoo model the tenant serves, TableRows the full logical
	// row count of each of its embedding tables (0 for models without
	// tables, and unchanged when the rows are sharded across replicas), and
	// Shape its normalized (FC-FLOP share, embedding-byte share)
	// resource-demand vector — what shape-aware placement keys on.
	Model     string
	TableRows int
	Shape     [2]float64
	// Outstanding is the tenant's fleet-wide routed-but-unreturned count,
	// Cap the configured ceiling on it (0 = uncapped).
	Outstanding int
	Cap         int
	// FrontDoor is the tenant's front-door accounting; it Balances the
	// Ledger below.
	FrontDoor
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
	// Stats is the fleet-merged snapshot: the fold of Tenants, so its
	// Ledger is the fleet-lifetime sum over current members plus every
	// removed replica's final counters. The ratios are recomputed from the
	// summed ledger (GPUQueryShare over Admitted, as at every tier), so they
	// are exact fleet-wide rates, not averages of per-replica rates. P50 /
	// P95 are computed over the sum of the replicas' latency histograms —
	// the live counterpart of the paper's fleet-wide latency distribution.
	// SLA is the replicas' shared target, Queued the summed admission-queue
	// depth, BatchSize / DegradeLevel the first replica's and GPUThreshold
	// the first GPU-capable replica's (per-replica AutoTune may diverge
	// them; Replicas carries each replica's own).
	live.Stats
	// FrontDoor is the sum of the tenants' front-door accounting.
	FrontDoor
	// ScaleUps / ScaleDowns count autoscaler membership moves; Crashes /
	// Restarts count chaos-injected replica failures and their recoveries.
	ScaleUps, ScaleDowns uint64
	Crashes, Restarts    uint64
	// Healthy is the number of routable replicas that are not failed.
	Healthy int
	// Replicas holds the per-replica snapshots in ID order.
	Replicas []ReplicaStats
	// Tenants holds the per-tenant fleet-merged snapshots in tenant order
	// (one entry, named after the model, on a single-model fleet).
	Tenants []TenantStats
}

// view copies the membership under mu — the member list, each member's
// draining flag, and the retired ledgers — so the caller reads the members'
// snapshots without the routing lock: a remote member's Snapshot is a
// /statsz fetch, and a reader holding mu through it would stall every route
// queued behind a pending Drain or Remove. A member removed between the
// copy and the fold counts exactly once: Remove adds its ledger to retired
// and drops it from the list in one critical section, so the copy holds it
// in the list or in retired, never both.
func (f *Fleet) view() (rs []*replica, draining []bool, retired []live.Ledger) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	rs = append([]*replica(nil), f.replicas...)
	draining = make([]bool, len(rs))
	for i, r := range rs {
		draining[i] = r.draining
	}
	return rs, draining, append([]live.Ledger(nil), f.retired...)
}

// snapshots takes one Snapshot per member of rs and folds each tenant's
// parts across them, plus its retired ledger, into that tenant's fleet-wide
// snapshot, which carries the fleet's configured Share rather than a
// member's echo of it.
func (f *Fleet) snapshots(rs []*replica, retired []live.Ledger) (members [][]live.TenantSnapshot, merged []live.TenantSnapshot) {
	members = make([][]live.TenantSnapshot, len(rs))
	for i, r := range rs {
		members[i] = r.svc.Snapshot().Tenants
	}
	merged = make([]live.TenantSnapshot, len(f.tenants))
	parts := make([]live.TenantSnapshot, len(members)+1)
	for ti, info := range f.tenants {
		for i, m := range members {
			parts[i] = m[ti]
		}
		parts[len(members)] = live.TenantSnapshot{Stats: live.Stats{Tenant: info.Name, Ledger: retired[ti]}}
		merged[ti] = live.Fold(parts)
		merged[ti].Share = info.Share
	}
	return members, merged
}

// Stats returns a fleet-wide online snapshot. Each member's tenants fold
// into its ReplicaStats, each tenant's merged snapshot is its TenantStats,
// and those fold into the fleet-wide aggregate — which is therefore the sum
// of the tenants reported with it, percentiles over the sum of every
// replica's latency histogram. Each member's outstanding counters are
// loaded once, so the replicas' Outstanding and the tenants' sum to the
// same total.
func (f *Fleet) Stats() Stats {
	rs, draining, retired := f.view()
	members, merged := f.snapshots(rs, retired)
	st := Stats{
		Policy:     f.policy.Name(),
		Stats:      live.Fold(merged).Stats,
		ScaleUps:   f.scaleUps.Load(),
		ScaleDowns: f.scaleDowns.Load(),
		Crashes:    f.crashes.Load(),
		Restarts:   f.restarts.Load(),
		Replicas:   make([]ReplicaStats, len(rs)),
		Tenants:    make([]TenantStats, len(f.tenants)),
	}
	for ti, info := range f.tenants {
		dr := &f.doors[ti]
		d := FrontDoor{dr.submitted.Load(), dr.retried.Load(), dr.capShed.Load(), dr.unrouted.Load()}
		st.FrontDoor = FrontDoor{
			st.FrontSubmitted + d.FrontSubmitted, st.Retried + d.Retried,
			st.CapShed + d.CapShed, st.Unrouted + d.Unrouted,
		}
		st.Tenants[ti] = TenantStats{
			Model:     info.Model,
			TableRows: info.TableRows,
			Shape:     info.Shape,
			Cap:       int(f.tenantCap[ti].Load()),
			FrontDoor: d,
			Stats:     merged[ti].Stats,
		}
	}
	// The fleet-wide aggregate names no tenant, even when there is only one,
	// and its threshold is the first GPU-capable replica's.
	st.Tenant, st.Share, st.GPUThreshold = "", 0, 0
	gpuSeen := false
	for i, r := range rs {
		failed := r.svc.Failed()
		if !draining[i] {
			st.Size++
			if !failed {
				st.Healthy++
			}
		}
		st.Replicas[i] = ReplicaStats{
			ID:       r.id,
			Speed:    r.speed,
			HasGPU:   r.gpu,
			Draining: draining[i],
			Failed:   failed,
			Stats:    live.Fold(members[i]).Stats,
		}
		for ti := range r.tenantOut {
			n := int(r.tenantOut[ti].Load())
			st.Replicas[i].Outstanding += n
			st.Tenants[ti].Outstanding += n
		}
		if r.gpu && !gpuSeen {
			st.GPUThreshold, gpuSeen = st.Replicas[i].GPUThreshold, true
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
