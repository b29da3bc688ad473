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
// Unset per-tenant fields inherit the Config-level value (which in turn has
// the usual default), so a TenantConfig needs only what differs from the
// service's baseline. A tenant's fields are range-checked once, after that
// inheritance (withDefaults below), so a bad value is refused wherever it
// was written — on the tenant, or on the Config a tenant inherits it from.
// The single-model service is the list of one such tenant, unnamed, that
// Config.WithDefaults builds over Config.Model.
type TenantConfig struct {
	// Name identifies the tenant in Query.Tenant lookups, Stats, and
	// reports. Required, and unique, in Config.Tenants; only the synthesized
	// tenant of a single-model Config has none.
	Name string
	// Model executes the tenant's forward passes (required). Tenants must
	// not share a *model.Model instance: per-tenant embedding-store
	// counters are read off the instance, so a shared one would merge the
	// tenants' ledgers.
	Model *model.Model
	// BatchSize is the tenant's initial per-request batch size (0 =
	// inherit Config.BatchSize).
	BatchSize int
	// GPUThreshold routes the tenant's queries of at least this size to
	// the shared accelerator lane (0 = inherit Config.GPUThreshold).
	GPUThreshold int
	// SLA is the tenant's p95 target (0 = inherit Config.SLA).
	SLA time.Duration
	// AutoTune runs this tenant's own two-knob controller against its own
	// measured p95 (ORed with Config.AutoTune).
	AutoTune bool
	// WindowSize bounds the tenant's online latency window (0 = inherit).
	WindowSize int
	// Admission bounds the work this tenant may have in the lanes at once
	// — the per-tenant outstanding-work cap that keeps one tenant's
	// saturation from consuming every execution slot. The zero value
	// inherits Config.Admission.
	Admission AdmissionConfig
	// Deadline is the tenant's per-query latency budget (0 = inherit).
	Deadline time.Duration
	// Degrade is the tenant's graceful-degradation ladder (zero value =
	// inherit Config.Degrade).
	Degrade DegradeConfig
	// Access is the tenant's sparse-index popularity distribution (nil =
	// inherit Config.Access).
	Access workload.IndexDist
	// Share is the tenant's relative weight: fleet placement policies size
	// partitions with it and callers implementing a weighted A/B split
	// read it back from Stats. The live service itself does not split
	// traffic — Query.Tenant names the tenant explicitly. 0 = 1.
	Share float64
}

// withDefaults fills one tenant's unset fields from the shared config and
// validates the result — the only range check a per-tenant field gets,
// whether the tenant set it or inherited it. Errors name the tenant; the
// anonymous tenant of a single-model Config has no name to give.
func (tc TenantConfig) withDefaults(cfg Config, idx int) (TenantConfig, error) {
	scope := ""
	if tc.Name != "" {
		scope = fmt.Sprintf("tenant %d (%s): ", idx, tc.Name)
	}
	if tc.Model == nil {
		return tc, fmt.Errorf("live: %sModel is required", scope)
	}
	if tc.BatchSize == 0 {
		tc.BatchSize = cfg.BatchSize
	}
	if tc.BatchSize < 1 || tc.BatchSize > MaxBatchSize {
		return tc, fmt.Errorf("live: %sbatch size %d outside [1, %d]", scope, tc.BatchSize, MaxBatchSize)
	}
	if tc.GPUThreshold == 0 {
		tc.GPUThreshold = cfg.GPUThreshold
	}
	if tc.GPUThreshold < 0 || tc.GPUThreshold > workload.MaxQuerySize {
		return tc, fmt.Errorf("live: %sGPU threshold %d outside [0, %d]", scope, tc.GPUThreshold, workload.MaxQuerySize)
	}
	if tc.GPUThreshold > 0 && cfg.GPU == nil {
		return tc, fmt.Errorf("live: %sGPU threshold set without an accelerator (Config.GPU)", scope)
	}
	if tc.SLA == 0 {
		tc.SLA = cfg.SLA
	}
	if tc.SLA < 0 {
		return tc, fmt.Errorf("live: %snegative SLA %v", scope, tc.SLA)
	}
	tc.AutoTune = tc.AutoTune || cfg.AutoTune
	if tc.AutoTune && tc.SLA == 0 {
		return tc, fmt.Errorf("live: %sAutoTune requires an SLA target", scope)
	}
	if tc.WindowSize == 0 {
		tc.WindowSize = cfg.WindowSize
	}
	if tc.WindowSize < 1 {
		return tc, fmt.Errorf("live: %swindow size %d < 1", scope, tc.WindowSize)
	}
	if tc.AutoTune && tc.WindowSize < minTuneSamples {
		return tc, fmt.Errorf("live: %sAutoTune needs a window of at least %d samples, got %d", scope, minTuneSamples, tc.WindowSize)
	}
	if tc.Admission == (AdmissionConfig{}) {
		tc.Admission = cfg.Admission
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
	if tc.Deadline == 0 {
		tc.Deadline = cfg.Deadline
	}
	if tc.Deadline < 0 {
		return tc, fmt.Errorf("live: %snegative deadline %v", scope, tc.Deadline)
	}
	if tc.Degrade == (DegradeConfig{}) {
		tc.Degrade = cfg.Degrade
	}
	if tc.Degrade.Truncate < 0 || tc.Degrade.Truncate > workload.MaxQuerySize {
		return tc, fmt.Errorf("live: %sdegrade truncation %d outside [0, %d]", scope, tc.Degrade.Truncate, workload.MaxQuerySize)
	}
	if tc.Access == nil {
		tc.Access = cfg.Access
	}
	if _, uniform := tc.Access.(workload.UniformAccess); uniform {
		// Explicit uniform access means the nil sampler: the lane's Stream
		// draws uniform indices by itself, in bulk.
		tc.Access = nil
	}
	if tc.Share == 0 {
		tc.Share = 1
	}
	if tc.Share < 0 {
		return tc, fmt.Errorf("live: %snegative share %v", scope, tc.Share)
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
	autoTune bool
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
		autoTune:  tc.AutoTune,
		share:     tc.Share,
		access:    tc.Access,
		fallback:  tc.Degrade.Fallback,
		win:       stats.NewWindow(tc.WindowSize),
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
	gpuItems := t.gpuItems.Load()
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
			GPUQueries:     t.gpuQueries.Load(),
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
	st.SetSamples(t.win.Snapshot())
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
	st.Admitted = st.GPUQueries + t.cpuQueries.Load()
	st.setRatios()
	return st
}
