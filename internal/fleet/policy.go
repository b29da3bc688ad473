package fleet

import (
	"fmt"
	"sync/atomic"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Candidate describes one routable replica at pick time: the information a
// routing policy may base its decision on. Outstanding is the number of
// queries the fleet has routed to the replica that have not yet returned
// (the front end's own count — it needs no replica cooperation and is exact
// at pick time under the membership lock). Speed is the replica's
// service-time scale factor (1 = nominal, larger = slower node).
type Candidate struct {
	ID          int
	Outstanding int
	HasGPU      bool
	Speed       float64
	// TenantOutstanding is the per-tenant breakdown of Outstanding, in
	// tenant-index order. The fleet fills it only when the routing policy
	// is tenant-aware (implements TenantPolicy); it is nil otherwise.
	TenantOutstanding []int
}

// Policy routes queries to replicas. Pick returns the index into candidates
// (never empty) of the replica that should serve a query of `size`
// candidate items. Implementations may keep internal state (round-robin
// keeps a cursor) but must be safe for concurrent Pick calls; the fleet
// serializes membership changes, not routing.
type Policy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// Pick selects the serving replica for a query of `size` items.
	// candidates holds every routable (non-draining) replica in ID order.
	// An out-of-range return is clamped by the fleet.
	Pick(size int, candidates []Candidate) int
}

// TenantInfo describes one tenant to tenant-aware placement policies.
type TenantInfo struct {
	// Name is the tenant's name ("" for the single-model degenerate case).
	Name string
	// Share is the tenant's relative traffic weight.
	Share float64
	// Shape is the tenant's normalized resource-demand vector, summing to
	// 1: Shape[0] is the FC-FLOP share, Shape[1] the embedding-byte share.
	// An FC-heavy model (WnD, NCF) sits near [1, 0]; an
	// embedding-dominated one (DLRM-RMC1) near [0, 1].
	Shape [2]float64
}

// TenantPolicy is a routing policy that places queries per tenant: the
// fleet binds the tenant set once at construction and then routes through
// PickTenant, giving the policy each candidate's per-tenant outstanding
// breakdown. Policies that also implement plain Pick stay usable on
// single-tenant fleets.
type TenantPolicy interface {
	Policy
	// BindTenants hands the policy the fleet's tenant set, in tenant-index
	// order. Called once before any PickTenant call.
	BindTenants(infos []TenantInfo)
	// PickTenant selects the serving replica for a query of `size` items
	// belonging to the given tenant index. candidates carry
	// TenantOutstanding. An out-of-range return is clamped by the fleet.
	PickTenant(tenant, size int, candidates []Candidate) int
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
func (p *RoundRobin) Pick(size int, candidates []Candidate) int {
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
func (LeastLoaded) Pick(size int, candidates []Candidate) int {
	return leastLoaded(candidates, func(Candidate) bool { return true })
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

// DefaultSizeThreshold is the SizeAware steering threshold when none is
// given: queries of at least this many candidate items count as "big". It
// sits at the knee of the production size distribution's heavy tail, the
// same region DeepRecSched's tuned offload thresholds land in.
const DefaultSizeThreshold = 512

// SizeAware steers by query size across a heterogeneous fleet: big queries
// (>= Threshold items) go to the least-loaded GPU-capable replica, whose
// offload lane serves exactly that heavy tail, while small queries prefer
// the least-loaded CPU-only replica so accelerator capacity is reserved
// for the work that benefits from it — the fleet-level analogue of
// DeepRecSched's per-node offload threshold. When no replica of the
// preferred kind is routable the policy falls back to least-loaded over
// all candidates, so a homogeneous fleet degrades gracefully.
type SizeAware struct {
	// Threshold is the steering boundary (default DefaultSizeThreshold).
	Threshold int
}

// NewSizeAware returns a size-aware policy; threshold 0 selects
// DefaultSizeThreshold.
func NewSizeAware(threshold int) SizeAware {
	if threshold <= 0 {
		threshold = DefaultSizeThreshold
	}
	return SizeAware{Threshold: threshold}
}

// Name implements Policy.
func (p SizeAware) Name() string { return fmt.Sprintf("size-aware:%d", p.Threshold) }

// Pick implements Policy.
func (p SizeAware) Pick(size int, candidates []Candidate) int {
	big := size >= p.Threshold
	if i := leastLoaded(candidates, func(c Candidate) bool { return c.HasGPU == big }); i >= 0 {
		return i
	}
	return leastLoaded(candidates, func(Candidate) bool { return true })
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
type TenantPartition struct {
	infos []TenantInfo
	cum   []float64 // cumulative share fractions, one entry per tenant
}

// NewTenantPartition returns a share-proportional partition policy.
func NewTenantPartition() *TenantPartition { return &TenantPartition{} }

// Name implements Policy.
func (p *TenantPartition) Name() string { return "tenant-partition" }

// BindTenants implements TenantPolicy.
func (p *TenantPartition) BindTenants(infos []TenantInfo) {
	p.infos = infos
	total := 0.0
	for _, ti := range infos {
		total += ti.Share
	}
	if total <= 0 {
		total = float64(len(infos))
	}
	p.cum = make([]float64, len(infos))
	run := 0.0
	for i, ti := range infos {
		share := ti.Share
		if share <= 0 {
			share = 1
		}
		run += share / total
		p.cum[i] = run
	}
}

// Pick implements Policy (the single-tenant fallback): least-loaded.
func (p *TenantPartition) Pick(size int, candidates []Candidate) int {
	return leastLoaded(candidates, func(Candidate) bool { return true })
}

// PickTenant implements TenantPolicy.
func (p *TenantPartition) PickTenant(tenant, size int, candidates []Candidate) int {
	if tenant < 0 || tenant >= len(p.cum) {
		return p.Pick(size, candidates)
	}
	n := len(candidates)
	lo := 0
	if tenant > 0 {
		lo = int(p.cum[tenant-1]*float64(n) + 0.5)
	}
	hi := int(p.cum[tenant]*float64(n) + 0.5)
	if hi > n {
		hi = n
	}
	if lo >= hi {
		// Empty partition (more tenants than replicas): share the fleet.
		return p.Pick(size, candidates)
	}
	return lo + leastLoaded(candidates[lo:hi], func(Candidate) bool { return true })
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
type ShapeSpread struct {
	infos []TenantInfo
}

// NewShapeSpread returns the interference-aware placement policy.
func NewShapeSpread() *ShapeSpread { return &ShapeSpread{} }

// Name implements Policy.
func (p *ShapeSpread) Name() string { return "shape-spread" }

// BindTenants implements TenantPolicy.
func (p *ShapeSpread) BindTenants(infos []TenantInfo) { p.infos = infos }

// Pick implements Policy (the single-tenant fallback): least-loaded.
func (p *ShapeSpread) Pick(size int, candidates []Candidate) int {
	return leastLoaded(candidates, func(Candidate) bool { return true })
}

// PickTenant implements TenantPolicy.
func (p *ShapeSpread) PickTenant(tenant, size int, candidates []Candidate) int {
	if tenant < 0 || tenant >= len(p.infos) {
		return p.Pick(size, candidates)
	}
	shape := p.infos[tenant].Shape
	best := -1
	bestCost := 0.0
	for i, c := range candidates {
		var load [2]float64
		for ti, out := range c.TenantOutstanding {
			if ti < len(p.infos) {
				load[0] += float64(out) * p.infos[ti].Shape[0]
				load[1] += float64(out) * p.infos[ti].Shape[1]
			}
		}
		cost := load[0]*shape[0] + load[1]*shape[1]
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
//	size-aware[:<n>]       queries >= n items steer to GPU-capable
//	                       replicas (default n = DefaultSizeThreshold)
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
	workload.NewForm("size-aware[:<n>]", func(args []string) (Policy, error) {
		thr := 0 // NewSizeAware's "use the default"
		err := workload.Args(args, workload.Int(&thr, 1))
		return NewSizeAware(thr), err
	}, 0, 1),
	workload.NewForm("tenant-partition", func([]string) (Policy, error) { return NewTenantPartition(), nil }),
	workload.NewForm("shape-spread", func([]string) (Policy, error) { return NewShapeSpread(), nil }),
}

// PolicyUsages lists every spec ParsePolicy accepts, in documentation
// order — the list its unknown-policy error enumerates and `serve -policy`
// prints as help, so the two cannot drift.
func PolicyUsages() []string { return workload.Usages(policyForms) }
