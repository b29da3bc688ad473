package live

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// TenantConfig binds one named tenant onto a shared Service: a model with
// its own SLA, two-knob operating point, admission/degrade configuration,
// access distribution, and stats ledger. Tenants share the service's
// executor lanes — the CPU worker pool and the accelerator streams — so
// co-located tenants contend exactly the way co-located production models
// do; everything above the lanes (knobs, windows, gates, ladders, counters)
// is per-tenant.
//
// A TenantConfig's fields are final: nothing is inherited from the Config
// (the root package resolves a service's defaults into each tenant before
// it gets here). withDefaults fills only built-in defaults — batch 256,
// share 1, the admission gate's sizes — and range-checks every field, with
// errors that name the tenant. The single-model service is the list of one
// such tenant, named after its model, that Config.WithDefaults builds over
// Config.Model.
type TenantConfig struct {
	// Name identifies the tenant in Query.Tenant lookups, Stats, and
	// reports. Required, and unique, in Config.Tenants; the tenant
	// WithDefaults builds over Config.Model is named Model.Cfg.Name.
	Name string
	// Model executes the tenant's forward passes (required). Tenants must
	// not share a *model.Model instance: per-tenant embedding-store
	// counters are read off the instance, so a shared one would merge the
	// tenants' ledgers.
	Model *model.Model
	// BatchSize is the tenant's initial per-request batch size (default
	// 256). The controller retunes it when Config.AutoTune is set.
	BatchSize int
	// GPUThreshold routes the tenant's queries of at least this size,
	// whole, to the shared accelerator lane (0 = no offload). Setting it
	// requires Config.GPU. The controller walks this knob too when the
	// lane is present.
	GPUThreshold int
	// SLA is the tenant's p95 target, reported by Stats and steered toward
	// by its controllers (0 = none). Required by AutoTune and by a degrade
	// ladder.
	SLA time.Duration
	// Admission bounds the work this tenant may have in the lanes at once
	// — the per-tenant outstanding-work cap that keeps one tenant's
	// saturation from consuming every execution slot: at most
	// Admission.Concurrency of its queries execute at once (default twice
	// Config.Workers), and the policy decides the fate of arrivals beyond
	// that — shed immediately, queue bounded, or shed the oldest waiter.
	// The zero value disables admission control (backpressure only from
	// the lane queues).
	Admission AdmissionConfig
	// Deadline is the tenant's per-query latency budget (0 = none). It
	// bounds the caller's context rather than replacing it: a query
	// expires at the earlier of the caller's deadline and arrival +
	// Deadline, and one already expired is shed before consuming an
	// admission slot or a forward pass.
	Deadline time.Duration
	// Degrade is the tenant's graceful-degradation ladder (truncated
	// candidate slates, then a cheaper fallback model), walked by an
	// SLA-aware controller; a non-empty ladder requires an SLA.
	Degrade DegradeConfig
	// Access is the sparse-index popularity distribution the tenant's
	// query inputs draw rows from (nil = uniform). Skewed access
	// (workload.ZipfAccess) concentrates lookups on a hot row set — the
	// production traffic shape that makes the embedding cache tier
	// effective. Each CPU worker binds one source per model geometry to its
	// own rng, and ranked accelerator queries bind one per query, so draw
	// sequences stay deterministic under Config.Seed.
	Access workload.IndexDist
	// Share is the tenant's relative weight: fleet placement policies size
	// partitions with it and callers implementing a weighted A/B split
	// read it back from Stats. The live service itself does not split
	// traffic — Query.Tenant names the tenant explicitly. 0 = 1.
	Share float64
}

// withDefaults fills one tenant's built-in defaults and validates the
// result — the only range check a per-tenant field gets. It reads Workers,
// GPU and AutoTune from the shared config and nothing else. Errors name the
// tenant.
func (tc TenantConfig) withDefaults(cfg Config, idx int) (TenantConfig, error) {
	scope := fmt.Sprintf("tenant %d (%s): ", idx, tc.Name)
	if tc.Model == nil {
		return tc, fmt.Errorf("live: %sModel is required", scope)
	}
	if tc.BatchSize == 0 {
		tc.BatchSize = 256
	}
	if tc.BatchSize < 1 || tc.BatchSize > MaxBatchSize {
		return tc, fmt.Errorf("live: %sbatch size %d outside [1, %d]", scope, tc.BatchSize, MaxBatchSize)
	}
	if tc.GPUThreshold < 0 || tc.GPUThreshold > workload.MaxQuerySize {
		return tc, fmt.Errorf("live: %sGPU threshold %d outside [0, %d]", scope, tc.GPUThreshold, workload.MaxQuerySize)
	}
	if tc.GPUThreshold > 0 && cfg.GPU == nil {
		return tc, fmt.Errorf("live: %sGPU threshold set without an accelerator (Config.GPU)", scope)
	}
	if tc.SLA < 0 {
		return tc, fmt.Errorf("live: %snegative SLA %v", scope, tc.SLA)
	}
	if cfg.AutoTune && tc.SLA == 0 {
		return tc, fmt.Errorf("live: %sAutoTune requires an SLA target", scope)
	}
	if tc.Admission.Policy < AdmitAll || tc.Admission.Policy > AdmitShedOldest {
		return tc, fmt.Errorf("live: %sunknown admission policy %d", scope, tc.Admission.Policy)
	}
	if tc.Admission.Policy != AdmitAll {
		if tc.Admission.Concurrency == 0 {
			tc.Admission.Concurrency = 2 * cfg.Workers
		}
		if tc.Admission.Concurrency < 1 {
			return tc, fmt.Errorf("live: %sadmission concurrency %d < 1", scope, tc.Admission.Concurrency)
		}
		if tc.Admission.Depth == 0 {
			tc.Admission.Depth = 4 * tc.Admission.Concurrency
		}
		if tc.Admission.Depth < 1 {
			return tc, fmt.Errorf("live: %sadmission queue depth %d < 1", scope, tc.Admission.Depth)
		}
	}
	if tc.Deadline < 0 {
		return tc, fmt.Errorf("live: %snegative deadline %v", scope, tc.Deadline)
	}
	if tc.Degrade.Truncate < 0 || tc.Degrade.Truncate > workload.MaxQuerySize {
		return tc, fmt.Errorf("live: %sdegrade truncation %d outside [0, %d]", scope, tc.Degrade.Truncate, workload.MaxQuerySize)
	}
	if tc.Degrade != (DegradeConfig{}) && tc.SLA == 0 {
		// The degrade controller walks the ladder against the SLA: without
		// one the ladder would be accepted and never engage.
		return tc, fmt.Errorf("live: %sdegrade ladder requires an SLA target", scope)
	}
	if _, uniform := tc.Access.(workload.UniformAccess); uniform {
		// Explicit uniform access means the nil sampler: the lane's Stream
		// draws uniform indices by itself, in bulk.
		tc.Access = nil
	}
	if tc.Share == 0 {
		tc.Share = 1
	}
	if !(tc.Share >= 0) { // NaN fails too
		return tc, fmt.Errorf("live: %sshare %v is not a non-negative number", scope, tc.Share)
	}
	return tc, nil
}

// tenant is the per-tenant serving state behind the shared executor lanes:
// the live knobs its controller walks, its online latency window, admission
// gate, degrade ladder position, and the full counter ledger. Lifetime
// counters satisfy the per-tenant conservation identity
//
//	Submitted == Completed + Cancelled + Shed + ShedDeadline + Failed + Abandoned
//
// independently of every other tenant (pinned by the mixed-tenant soak).
type tenant struct {
	idx      int
	name     string
	model    *model.Model
	profile  model.Profile // modeled accelerator time for this tenant's queries
	sla      time.Duration
	deadline time.Duration
	share    float64
	access   workload.IndexDist
	fallback *model.Model

	batch    atomic.Int64
	thresh   atomic.Int64
	win      *stats.Window
	adm      *admission // nil = admission control off for this tenant
	degLevel atomic.Int32

	degLadder []degradeRung

	submitted atomic.Uint64
	completed atomic.Uint64
	cancelled atomic.Uint64
	retunes   atomic.Uint64

	shed         atomic.Uint64
	evicted      atomic.Uint64
	shedDeadline atomic.Uint64
	failedQ      atomic.Uint64
	abandoned    atomic.Uint64

	truncated      atomic.Uint64
	fallbackServed atomic.Uint64
	degradeSteps   atomic.Uint64

	gpuQueries atomic.Uint64
	cpuQueries atomic.Uint64
	gpuItems   atomic.Uint64
	cpuItems   atomic.Uint64
}

// newTenant builds the runtime state for one validated tenant config.
func newTenant(idx int, tc TenantConfig) *tenant {
	t := &tenant{
		idx:       idx,
		name:      tc.Name,
		model:     tc.Model,
		profile:   model.BuildProfile(tc.Model.Cfg),
		sla:       tc.SLA,
		deadline:  tc.Deadline,
		share:     tc.Share,
		access:    tc.Access,
		fallback:  tc.Degrade.Fallback,
		win:       stats.NewWindow(windowSize),
		degLadder: tc.Degrade.rungs(),
	}
	t.batch.Store(int64(tc.BatchSize))
	t.thresh.Store(int64(tc.GPUThreshold))
	if tc.Admission.Policy != AdmitAll {
		t.adm = newAdmission(tc.Admission)
	}
	return t
}

// countAborted records a pre-execution context abort in the right counter:
// a deadline expiry is a deadline shed (the overload-defense outcome), an
// explicit cancellation stays a plain cancel.
func (t *tenant) countAborted(err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		t.shedDeadline.Add(1)
	} else {
		t.cancelled.Add(1)
	}
}

// snapshot reads this tenant's part of the service Snapshot: the one place
// the ledger's counters are loaded from their atomics.
func (t *tenant) snapshot() TenantSnapshot {
	gpuQueries, gpuItems := t.gpuQueries.Load(), t.gpuItems.Load()
	st := TenantSnapshot{Stats: Stats{
		Tenant: t.name,
		Share:  t.share,
		Ledger: Ledger{
			Submitted:      t.submitted.Load(),
			Completed:      t.completed.Load(),
			Cancelled:      t.cancelled.Load(),
			Shed:           t.shed.Load(),
			Evicted:        t.evicted.Load(),
			ShedDeadline:   t.shedDeadline.Load(),
			Abandoned:      t.abandoned.Load(),
			Failed:         t.failedQ.Load(),
			Admitted:       gpuQueries + t.cpuQueries.Load(),
			GPUQueries:     gpuQueries,
			WorkItems:      gpuItems + t.cpuItems.Load(),
			GPUItems:       gpuItems,
			Retunes:        t.retunes.Load(),
			DegradeSteps:   t.degradeSteps.Load(),
			Truncated:      t.truncated.Load(),
			FallbackServed: t.fallbackServed.Load(),
		},
		BatchSize:    int(t.batch.Load()),
		GPUThreshold: int(t.thresh.Load()),
		SLA:          t.sla,
		DegradeLevel: int(t.degLevel.Load()),
	}}
	st.Latency = t.win.Snapshot()
	if t.adm != nil {
		st.Queued = t.adm.queued()
	}
	if est, ok := t.model.EmbStats(); ok {
		if t.fallback != nil {
			if fst, fok := t.fallback.EmbStats(); fok {
				est = est.Add(fst)
			}
		}
		st.EmbStore = true
		st.EmbHits = est.Hits
		st.EmbMisses = est.Misses
		st.EmbEvictions = est.Evictions
		st.EmbBytesRead = est.BytesRead
	}
	st.setRatios()
	return st
}
