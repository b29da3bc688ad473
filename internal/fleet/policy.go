package fleet

import (
	"sync/atomic"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Candidate describes one routable replica at pick time: the information a
// routing policy may base its decision on. Outstanding is the number of
// queries the fleet has routed to the replica that have not yet returned
// (the front end's own count — it needs no replica cooperation and is exact
// at pick time under the membership lock). Threshold is the replica's
// current offload threshold for the query's tenant: it offloads queries of
// at least that many items (0 = none: CPU-only, or its threshold is off).
// Speed is the replica's service-time scale factor (1 = nominal, larger =
// slower node).
type Candidate struct {
	ID          int
	Outstanding int
	Threshold   int
	Speed       float64
	// TenantOutstanding is the per-tenant breakdown of Outstanding, one
	// entry per fleet tenant in tenant-index order.
	TenantOutstanding []int
}

// Policy routes queries to replicas. Pick returns the index into candidates
// (never empty) of the replica that should serve a query of `size`
// candidate items for tenant index `tenant`. The fleet hands every Pick its
// own tenant set, so one policy value can route for any number of fleets.
// Implementations may keep internal state (round-robin keeps a cursor) but
// must be safe for concurrent Pick calls; the fleet serializes membership
// changes, not routing.
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Pick selects the serving replica for a query of `size` items
	// belonging to tenants[tenant]. tenants is the fleet's tenant set in
	// tenant-index order (read-only); candidates holds every routable
	// (non-draining, healthy) replica in ID order. An out-of-range return is
	// clamped by the fleet.
	Pick(tenant, size int, tenants []TenantInfo, candidates []Candidate) int
}

// TenantInfo describes one fleet tenant to the routing policy.
type TenantInfo struct {
	// Name is the tenant's name (a single-model fleet's one tenant is named
	// after its model).
	Name string
	// Model is the zoo model the tenant serves, TableRows the full logical
	// row count of each of its embedding tables (0 for models without
	// tables).
	Model     string
	TableRows int
	// Share is the tenant's relative traffic weight (positive: live
	// defaults an unset share to 1).
	Share float64
	// Shape is the tenant's normalized resource-demand vector, summing to
	// 1: Shape[0] is the FC-FLOP share, Shape[1] the embedding-byte share.
	// An FC-heavy model (WnD, NCF) sits near [1, 0]; an
	// embedding-dominated one (DLRM-RMC1) near [0, 1].
	Shape [2]float64
}

// RoundRobin cycles through the routable replicas in order, ignoring query
// size and load: the fairness baseline. Because membership can change
// between picks, the rotation is positional — the cursor advances over
// whatever candidate set is current.
type RoundRobin struct {
	next atomic.Uint64
}

// NewRoundRobin returns a round-robin policy with the cursor at the first
// replica.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(tenant, size int, tenants []TenantInfo, candidates []Candidate) int {
	return int((p.next.Add(1) - 1) % uint64(len(candidates)))
}

// LeastLoaded routes each query to the replica with the fewest outstanding
// queries — the classic join-shortest-queue heuristic, which absorbs both
// query-size skew (a replica stuck on a 1000-item query accumulates
// outstanding work and stops attracting new queries) and node heterogeneity
// (a slow node drains its queue slower, so it backs off automatically).
// Ties break toward the faster node, then the lower ID, so routing is
// deterministic given the candidate snapshot.
type LeastLoaded struct{}

// NewLeastLoaded returns the least-outstanding-queries policy.
func NewLeastLoaded() LeastLoaded { return LeastLoaded{} }

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Pick implements Policy.
func (LeastLoaded) Pick(tenant, size int, tenants []TenantInfo, candidates []Candidate) int {
	return leastLoaded(candidates, anyCandidate)
}

// leastLoaded returns the index of the least-outstanding candidate among
// those matching keep, or -1 when none matches. Ties prefer the smaller
// speed factor (faster node), then the lower ID.
func leastLoaded(candidates []Candidate, keep func(Candidate) bool) int {
	best := -1
	for i, c := range candidates {
		if !keep(c) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := candidates[best]
		switch {
		case c.Outstanding != b.Outstanding:
			if c.Outstanding < b.Outstanding {
				best = i
			}
		case c.Speed != b.Speed:
			if c.Speed < b.Speed {
				best = i
			}
		}
	}
	return best
}

// anyCandidate is the leastLoaded filter that keeps every candidate.
func anyCandidate(Candidate) bool { return true }

// SizeAware steers by query size across a heterogeneous fleet, keyed on
// each replica's own offload threshold for the query's tenant — the one
// threshold DeepRecSched tunes, so the router and the replicas cannot
// disagree about what is big. A query goes to the least-loaded replica that
// would offload it (size >= its nonzero threshold), whose accelerator lane
// serves exactly that heavy tail; failing that, to the least-loaded replica
// that offloads nothing, so accelerator capacity is kept for the work that
// benefits from it; failing that, to the least-loaded replica overall. A
// replica whose threshold walked to off is never preferred for a big query.
type SizeAware struct{}

// NewSizeAware returns the size-aware policy.
func NewSizeAware() SizeAware { return SizeAware{} }

// Name implements Policy.
func (SizeAware) Name() string { return "size-aware" }

// Pick implements Policy.
func (SizeAware) Pick(tenant, size int, tenants []TenantInfo, candidates []Candidate) int {
	if i := leastLoaded(candidates, func(c Candidate) bool { return c.Threshold > 0 && size >= c.Threshold }); i >= 0 {
		return i
	}
	if i := leastLoaded(candidates, func(c Candidate) bool { return c.Threshold == 0 }); i >= 0 {
		return i
	}
	return leastLoaded(candidates, anyCandidate)
}

// TenantPartition reserves a share-proportional slice of the fleet for each
// tenant: the candidate list (ID order) is cut into contiguous partitions
// sized by tenant Share, and a tenant's queries go to the least-loaded
// replica of its own partition. Interference isolation by construction — an
// FC-heavy tenant saturating its partition cannot queue work on an
// embedding-heavy tenant's replicas — at the cost of bin-packing
// efficiency: a tenant's idle partition capacity is not lent out. When a
// tenant's partition is empty (more tenants than replicas), its queries
// fall back to least-loaded over the whole fleet.
type TenantPartition struct{}

// NewTenantPartition returns a share-proportional partition policy.
func NewTenantPartition() TenantPartition { return TenantPartition{} }

// Name implements Policy.
func (TenantPartition) Name() string { return "tenant-partition" }

// Pick implements Policy: the tenant's partition spans the cumulative share
// fractions [lo, hi) of the candidate list.
func (TenantPartition) Pick(tenant, size int, tenants []TenantInfo, candidates []Candidate) int {
	total := 0.0
	for _, ti := range tenants {
		total += ti.Share
	}
	var lo, hi float64
	for _, ti := range tenants[:tenant+1] {
		lo, hi = hi, hi+ti.Share/total
	}
	n := len(candidates)
	from, to := int(float64(lo*float64(n))+0.5), min(int(float64(hi*float64(n))+0.5), n)
	if from >= to {
		// Empty partition (more tenants than replicas): share the fleet.
		return leastLoaded(candidates, anyCandidate)
	}
	return from + leastLoaded(candidates[from:to], anyCandidate)
}

// ShapeSpread places by resource-shape interference: each candidate's
// outstanding work is projected onto the tenants' demand vectors
// (FC-FLOP share vs embedding-byte share), and the incoming query goes to
// the replica where work of its own shape is scarcest — the dot product of
// the replica's load vector with the tenant's shape. Same-shaped tenants
// spread apart while complementary shapes co-locate, so an FC-heavy tenant
// and an embedding-dominated one pack onto shared replicas without
// contending for the same resource — the paper's observation that the zoo's
// diversity is a placement opportunity, made a policy. Ties break toward
// fewer outstanding queries, then the lower ID.
type ShapeSpread struct{}

// NewShapeSpread returns the interference-aware placement policy.
func NewShapeSpread() ShapeSpread { return ShapeSpread{} }

// Name implements Policy.
func (ShapeSpread) Name() string { return "shape-spread" }

// Pick implements Policy.
func (ShapeSpread) Pick(tenant, size int, tenants []TenantInfo, candidates []Candidate) int {
	shape := tenants[tenant].Shape
	best := -1
	bestCost := 0.0
	for i, c := range candidates {
		var load [2]float64
		for ti, out := range c.TenantOutstanding {
			load[0] += float64(float64(out) * tenants[ti].Shape[0])
			load[1] += float64(float64(out) * tenants[ti].Shape[1])
		}
		cost := float64(load[0]*shape[0]) + float64(load[1]*shape[1])
		switch {
		case best < 0 || cost < bestCost:
			best, bestCost = i, cost
		case cost == bestCost && c.Outstanding < candidates[best].Outstanding:
			best = i
		}
	}
	return best
}

// ParsePolicy parses a routing-policy spec as accepted by
// `deeprecsys serve -policy`:
//
//	round-robin            cycle through the replicas (the default)
//	least-loaded           fewest outstanding queries wins
//	size-aware             queries steer to replicas that would offload
//	                       them, by each replica's tenant offload threshold
//	tenant-partition       share-proportional replica partitions per tenant
//	shape-spread           interference-aware placement by resource shape
func ParsePolicy(spec string) (Policy, error) {
	if spec == "" {
		spec = "round-robin"
	}
	return workload.ParseCall("fleet", "routing policy", spec, policyForms)
}

var policyForms = []workload.Form[Policy]{
	workload.NewForm("round-robin", func([]string) (Policy, error) { return NewRoundRobin(), nil }),
	workload.NewForm("least-loaded", func([]string) (Policy, error) { return NewLeastLoaded(), nil }),
	workload.NewForm("size-aware", func(args []string) (Policy, error) {
		return NewSizeAware(), workload.Need(nil, args == nil, "no threshold: size-aware steers by each replica's tenant offload threshold, the one knob (GPUThreshold, -threshold, tenant thresh=)")
	}, 0, 1),
	workload.NewForm("tenant-partition", func([]string) (Policy, error) { return NewTenantPartition(), nil }),
	workload.NewForm("shape-spread", func([]string) (Policy, error) { return NewShapeSpread(), nil }),
}

// PolicyUsages lists every spec ParsePolicy accepts, in documentation
// order — the list its unknown-policy error enumerates and `serve -policy`
// prints as help, so the two cannot drift.
func PolicyUsages() []string { return workload.Usages(policyForms) }
