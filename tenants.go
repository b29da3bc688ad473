package deeprecsys

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// TenantSpec binds one named tenant onto a shared Service: a zoo model with
// its own SLA, traffic share, two-knob operating point, overload defenses,
// access pattern, and embedding-table backing. Tenants share the service's
// executor lanes — the CPU worker pool and the accelerator streams — so
// co-located tenants contend exactly the way co-located production models
// do; everything above the lanes (knobs, latency windows, admission gates,
// degrade ladders, stats ledgers) is per-tenant. Zero-valued fields take
// the corresponding ServeOptions value, resolved once at Serve, so a spec
// needs only what differs from the service baseline.
type TenantSpec struct {
	// Model is the zoo model the tenant serves (required).
	Model string
	// Name identifies the tenant in SubmitTo, Reply.Tenant, and Stats
	// (default: Model). Names must be unique; two tenants may serve the
	// same Model under different Names — with different Seeds, that is a
	// live A/B test between model versions, split by Share.
	Name string
	// SLA is the tenant's p95 target. 0 uses ServeOptions.SLA when set,
	// otherwise the model's own published tail-latency target — so a
	// default multi-tenant service reports each tenant against its own
	// paper SLA, not the first model's.
	SLA time.Duration
	// Share is the tenant's traffic weight: Submit splits un-addressed
	// queries across tenants by Share (a deterministic smooth weighted
	// round-robin), and share-aware fleet placement sizes partitions with
	// it. 0 = 1; the shares and their total must be finite.
	Share float64
	// BatchSize / GPUThreshold seed the tenant's two knobs (0 = inherit
	// the ServeOptions values; per-tenant AutoTune walks them from there).
	BatchSize    int
	GPUThreshold int
	// Admission bounds the work this tenant may have in the lanes at once,
	// as a ServeOptions.Admission spec string ("" = inherit; "none" = no
	// gate for this tenant, whatever the service sets). This is the
	// per-tenant outstanding-work cap that keeps one tenant's overload
	// from consuming every execution slot.
	Admission string
	// Deadline is the tenant's per-query latency budget (0 = inherit).
	Deadline time.Duration
	// Degrade is the tenant's graceful-degradation ladder, as a
	// ServeOptions.Degrade spec string ("" = inherit; "none" = no ladder
	// for this tenant).
	Degrade string
	// Access is the tenant's sparse-index popularity distribution, as a
	// ServeOptions.Access spec string ("" = inherit).
	Access string
	// Seed selects the tenant's model weights (0 = the system seed). Two
	// tenants with the same Model and different Seeds serve different
	// weight versions — the A/B mechanism.
	Seed int64
	// MaxOutstanding caps the tenant's fleet-wide routed-but-unreturned
	// queries; excess queries are shed at the front door with
	// ErrOverloaded before touching a replica (Admission bounds the tenant
	// per replica instead). 0 = uncapped.
	MaxOutstanding int
	// Workload names the tenant's query-size distribution, the
	// size-distribution half of a ParseWorkload spec (no "@<arrivals>";
	// the driver's -arrivals applies). The Service does not read it —
	// queries carry their own sizes — but load drivers (cmd/deeprecsys
	// serve) use it to generate this tenant's stream ("" = the driver's
	// default workload).
	Workload string
	// Store backs the tenant's embedding tables with a pluggable store,
	// as a WithEmbeddingStore spec string ("" = classic in-memory tables).
	// Every replica — founding, added or autoscaled — gets its own
	// store-backed instance, so per-replica cache counters stay per-replica
	// truth.
	Store string
	// Rows / Lookups override the tenant model's embedding-table geometry,
	// as in WithTableScale (0 = keep the zoo default).
	Rows, Lookups int
}

// ParseTenants parses the CLI tenant grammar: semicolon-separated tenants,
// each a zoo model name with optional comma-separated key=value fields:
//
//	<model>[@key=val,...][;<model>[@key=val,...]]...
//
// e.g. "DLRM-RMC1@sla=100ms,share=3;WnD@sla=25ms,admission=queue:64".
// Keys: name, sla, share, batch, thresh, admission, deadline, degrade,
// access, seed, cap, workload, store, rows, lookups — each setting the
// TenantSpec field of the same meaning. Values whose own grammar contains
// commas (degrade, access, workload, store) write '+' in place of ',':
// "degrade=truncate=128+fallback=NCF". "" and "none" parse to no tenants.
func ParseTenants(spec string) ([]TenantSpec, error) {
	if workload.Off(spec) {
		return nil, nil
	}
	var out []TenantSpec
	for _, entry := range workload.Fields(spec, ";") {
		modelName, opts, hasOpts := strings.Cut(entry, "@")
		ts := TenantSpec{Model: strings.TrimSpace(modelName)}
		if ts.Model == "" {
			return nil, fmt.Errorf("deeprecsys: tenant entry %q in %q has no model name", entry, spec)
		}
		if hasOpts {
			err := workload.Pairs("deeprecsys", "tenant "+ts.Model, workload.Fields(opts, ","), "=",
				workload.NewKey("name", workload.String(&ts.Name)),
				workload.NewKey("sla", workload.Duration(&ts.SLA)),
				workload.NewKey("share", workload.Float(&ts.Share)),
				workload.NewKey("batch", workload.Int(&ts.BatchSize)),
				workload.NewKey("thresh", workload.Int(&ts.GPUThreshold)),
				workload.NewKey("admission", nested(&ts.Admission)),
				workload.NewKey("deadline", workload.Duration(&ts.Deadline)),
				workload.NewKey("degrade", nested(&ts.Degrade)),
				workload.NewKey("access", nested(&ts.Access)),
				workload.NewKey("seed", workload.Int(&ts.Seed)),
				workload.NewKey("cap", workload.Int(&ts.MaxOutstanding)),
				workload.NewKey("workload", nested(&ts.Workload)),
				workload.NewKey("store", nested(&ts.Store)),
				workload.NewKey("rows", workload.Int(&ts.Rows)),
				workload.NewKey("lookups", workload.Int(&ts.Lookups)))
			if err != nil {
				return nil, err
			}
		}
		out = append(out, ts)
	}
	return out, nil
}

// nested reads a value written in another spec grammar (degrade, access,
// workload, store), where '+' stands for the ',' the tenant grammar
// reserves as its own field separator.
func nested(dst *string) workload.Reader {
	return func(val string) error { *dst = strings.ReplaceAll(val, "+", ","); return nil }
}

// tenantSplit is the deterministic smooth weighted round-robin Submit uses
// to spread un-addressed queries across tenants by Share: each pick raises
// every tenant's credit by its weight, serves the highest credit, and
// charges the winner the total weight — over any window of W total picks a
// tenant with share w receives w/W of them, interleaved (never bursted).
type tenantSplit struct {
	mu    sync.Mutex
	w     []float64
	cur   []float64
	total float64
}

// newTenantSplit weighs each tenant by its resolved Share.
func newTenantSplit(tcs []live.TenantConfig) *tenantSplit {
	ts := &tenantSplit{w: make([]float64, len(tcs)), cur: make([]float64, len(tcs))}
	for i, tc := range tcs {
		ts.w[i] = tc.Share
		ts.total += tc.Share
	}
	return ts
}

func (ts *tenantSplit) next() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	best := 0
	for i := range ts.cur {
		ts.cur[i] += ts.w[i]
		if ts.cur[i] > ts.cur[best] {
			best = i
		}
	}
	ts.cur[best] -= ts.total
	return best
}

// tenantSlots makes svc multi-tenant: one slot per ServeOptions.Tenants
// entry and its live.TenantConfig in svc.base.Tenants. A classic-table
// tenant's one instance is built here, owned by svc and shared by every
// fleet member; a store-backed tenant's instances are built per member by
// replicaConfig. Models built before a failure are svc.closeOwned by the
// caller.
func (s *System) tenantSlots(svc *Service, opts ServeOptions, shared live.TenantConfig) error {
	if s.store != nil {
		return errors.New("deeprecsys: ServeOptions.Tenants on a store-backed system (give each tenant its own store via TenantSpec.Store)")
	}
	if opts.ShardTables {
		return errors.New("deeprecsys: ShardTables is incompatible with Tenants (table geometry is per-tenant; use TenantSpec.Store)")
	}
	n := len(opts.Tenants)
	svc.slots = make([]slot, 0, n)
	svc.base.Tenants = make([]live.TenantConfig, n)
	total := 0.0
	for i, spec := range opts.Tenants {
		if spec.Model == "" {
			return fmt.Errorf("deeprecsys: tenant %d: Model is required", i)
		}
		mc, err := model.ByName(spec.Model)
		if err != nil {
			return err
		}
		name := cmp.Or(spec.Name, spec.Model)
		if svc.slotIndex(name) >= 0 {
			return fmt.Errorf("deeprecsys: duplicate tenant name %q (set TenantSpec.Name to serve one model twice)", name)
		}
		scoped := func(err error) error { return fmt.Errorf("deeprecsys: tenant %s: %w", name, err) }
		if spec.Rows > 0 || spec.Lookups > 0 {
			if mc, err = mc.WithTableScale(spec.Rows, spec.Lookups); err != nil {
				return scoped(err)
			}
		}
		var store *embstore.Spec
		if !workload.Off(spec.Store) {
			sp, err := embstore.ParseSpec(spec.Store)
			if err != nil {
				return scoped(err)
			}
			store = &sp
		}
		if spec.MaxOutstanding < 0 {
			return scoped(fmt.Errorf("negative MaxOutstanding %d", spec.MaxOutstanding))
		}
		tc, err := s.tenantConfig(name, spec, mc, shared)
		if err != nil {
			return err
		}
		if total += tc.Share; total > math.MaxFloat64 {
			return scoped(fmt.Errorf("share %v takes the tenants' share total to %v", tc.Share, total))
		}
		seed := cmp.Or(spec.Seed, s.seed)
		sl := newSlot(name, mc, seed, store)
		sl.cap = spec.MaxOutstanding
		if sl.build == nil {
			if tc.Model, err = model.New(mc, seed); err != nil {
				return scoped(err)
			}
			svc.own(tc.Model)
		}
		svc.slots = append(svc.slots, sl)
		svc.base.Tenants[i] = tc
	}
	return nil
}

// tenantConfig resolves one tenant's final live.TenantConfig: the one place
// a per-tenant knob is defaulted, for the single-model slot and every
// TenantSpec alike. A field the spec leaves unset takes the service's value
// from shared (ServeOptions, its spec strings parsed once by Serve); the SLA
// falls back past ServeOptions.SLA to the tenant model's own published
// target, so a default multi-tenant service holds each tenant to its own
// paper SLA. live fills only built-in defaults and range-checks the result.
func (s *System) tenantConfig(name string, spec TenantSpec, mc model.Config, shared live.TenantConfig) (live.TenantConfig, error) {
	tc := shared
	tc.Name = name
	tc.BatchSize = cmp.Or(spec.BatchSize, shared.BatchSize)
	tc.GPUThreshold = cmp.Or(spec.GPUThreshold, shared.GPUThreshold)
	tc.SLA = cmp.Or(spec.SLA, shared.SLA, mc.SLAMedium)
	tc.Deadline = cmp.Or(spec.Deadline, shared.Deadline)
	tc.Share = cmp.Or(spec.Share, 1)
	scoped := func(err error) (live.TenantConfig, error) {
		return tc, fmt.Errorf("deeprecsys: tenant %s: %w", name, err)
	}
	if !(tc.Share >= 0 && tc.Share <= math.MaxFloat64) { // NaN and +Inf fail too
		return scoped(fmt.Errorf("share %v is not a finite non-negative number", tc.Share))
	}
	var err error
	if spec.Admission != "" {
		if tc.Admission, err = live.ParseAdmission(spec.Admission); err != nil {
			return scoped(err)
		}
	}
	if spec.Degrade != "" {
		if tc.Degrade, err = s.parseDegrade(spec.Degrade); err != nil {
			return scoped(err)
		}
	}
	if spec.Access != "" {
		if tc.Access, err = workload.ParseAccess(spec.Access); err != nil {
			return scoped(err)
		}
	}
	return tc, nil
}

// slotIndex maps a tenant name to its slot (-1 = none).
func (s *Service) slotIndex(name string) int {
	return slices.IndexFunc(s.slots, func(sl slot) bool { return sl.name == name })
}

// Tenants returns the service's tenant names in tenant order (a
// single-model Service's one tenant is named after its model).
func (s *Service) Tenants() []string {
	names := make([]string, len(s.slots))
	for i, sl := range s.slots {
		names[i] = sl.name
	}
	return names
}

// SubmitTo serves one live query addressed to a named tenant, bypassing the
// Share-weighted split. See Submit for the execution contract.
func (s *Service) SubmitTo(ctx context.Context, tenant string, candidates, topN int) (Reply, error) {
	idx := s.slotIndex(tenant)
	if idx < 0 {
		return Reply{}, fmt.Errorf("deeprecsys: unknown tenant %q (have %s)", tenant, strings.Join(s.Tenants(), ", "))
	}
	return s.submit(ctx, live.Query{Candidates: candidates, TopN: topN, Tenant: idx})
}

// TenantStats is the online snapshot of one tenant of a Service: the
// tenant's Model, TableRows and Shape, its own knobs, windowed percentiles
// against its own SLA, and lifetime counter ledger, independent of its
// neighbors on the shared lanes, and its front-door counts beside them. The
// counters are fleet-merged (current replicas plus removed ones) and the
// percentiles computed from the sum of the tenant's per-replica latency
// histograms. Stats.Tenant is its name; its Ledger is Conserved, and its
// FrontDoor Balances that Ledger, each independently of every other tenant.
type TenantStats = fleet.TenantStats
