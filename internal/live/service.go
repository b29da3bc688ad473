// Package live is the online counterpart of the offline serving simulator:
// a real concurrent recommendation server executing the paper's serving
// loop (Fig. 8) on the host. Queries arrive via Submit from any number of
// goroutines; a scheduler routes each query to one of two executor lanes —
// queries at or above the GPU threshold go whole to a modeled accelerator
// lane bounded by the device's stream count, the rest are split into
// batch-sized requests dispatched to a CPU worker pool running actual model
// forward passes; measured latencies feed a sliding-window tail estimator;
// and an optional DeepRecSched-style controller retunes both knobs — batch
// size and offload threshold — against the measured p95 while the service
// runs.
//
// The offline simulator answers "what would this policy sustain?"; this
// package *is* the policy, serving live traffic. They share the model zoo,
// the batching discipline, the accelerator performance model, and the
// tail-latency objective, so a configuration tuned offline can be deployed
// here unchanged.
//
// A Service is one serving node. Config.Scale stretches its service times
// by a per-node factor — the live counterpart of the offline fleet's
// node-heterogeneity model (platform.SpeedFactors) — and Snapshot reads
// every tenant's Stats and latency histogram at once, for Fold to merge
// across tenants and nodes; both exist so internal/fleet can shard traffic
// across N replica Services, the paper's at-scale tier made live.
package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("live: service closed")

// ErrReplicaDown is returned by Submit when the service has been failed by
// fault injection (Fail): in-flight queries are aborted and new queries
// refused, modeling a crashed serving process whose callers see connection
// errors. A fleet front end treats it as a health signal — it stops
// routing to the replica and may retry the query elsewhere.
var ErrReplicaDown = errors.New("live: replica down")

// MaxBatchSize caps the per-request batch size, matching the range the
// paper's hill climb explores (up to 1024).
const MaxBatchSize = 1024

// Config parameterizes a Service. Every Service serves a tenant list,
// Tenants, whose fields are final: each tenant's knobs, SLA and overload
// defenses are written on its TenantConfig, which fills only built-in
// defaults and validates. Model, BatchSize and SLA are the shorthand for a
// Config with one tenant, serving Model and named after it, and are refused
// beside Tenants. Workers, GPU, TuneInterval, IntraOp, Seed and Scale
// describe the shared lanes; AutoTune switches on every tenant's
// controller. Model or Tenants is required; every other field has a working
// default. Each tenant's latency window holds its last 4096 samples, and
// the CPU lane queues up to 8 requests per worker.
type Config struct {
	// Model executes the forward passes of the one tenant a Config without
	// Tenants serves. It must not be mutated while the service runs;
	// concurrent Forward calls are safe by construction (weights are
	// read-only, outputs freshly allocated).
	Model *model.Model
	// Tenants names the (model, SLA, knobs, ledger) bindings sharing this
	// service's executor lanes: every tenant needs a unique non-empty Name
	// and its own Model instance. Empty = one tenant serving Model, named
	// Model.Cfg.Name.
	Tenants []TenantConfig
	// Workers is the CPU worker-pool size (default GOMAXPROCS).
	Workers int
	// BatchSize is the one-tenant shorthand's initial per-request batch
	// size (TenantConfig.BatchSize).
	BatchSize int
	// GPU provisions the modeled accelerator lane (nil = CPU-only):
	// offloaded queries occupy one of its Streams slots for the modeled
	// service time GPU.QueryTime. Routing is governed by each tenant's
	// GPUThreshold.
	GPU *platform.GPU
	// SLA is the one-tenant shorthand's p95 target (TenantConfig.SLA).
	SLA time.Duration
	// AutoTune enables the background controllers: per tenant, a hill
	// climb on the batch-size and offload-threshold knobs against that
	// tenant's measured p95 (the online analogue of DeepRecSched's tuning
	// loop). Every tenant then needs an SLA.
	AutoTune bool
	// TuneInterval is the controller's adjustment period (default 250ms).
	TuneInterval time.Duration
	// IntraOp enables intra-query parallelism on the CPU lane: a worker
	// splits any chunk of at least 2·model.MinSplitRows candidates
	// row-wise across up to IntraOp goroutines (internal/par), each with
	// its own scratch arena. Results are bit-identical to serial execution
	// — forward passes are row-independent — so this is purely a latency
	// knob for big-batch queries on multi-core hosts. Default 1 (off).
	IntraOp int
	// Seed makes the per-worker input RNGs deterministic (default 1).
	Seed int64
	// Scale stretches every service time by this factor (default 1) — the
	// live counterpart of the offline fleet's per-node speed factor:
	// 1.05 models a node 5% slower than nominal (silicon quality, thermal
	// headroom, co-tenancy). The accelerator lane scales its modeled
	// service time directly; the CPU lane executes real forward passes, so
	// it can only be slowed — factors above 1 pad each chunk
	// proportionally, factors below 1 floor at real execution speed.
	Scale float64
}

// WithDefaults normalizes cfg to its tenant list — the one place the
// one-tenant shorthand becomes the tenant serving Config.Model, named after
// the model — and returns it with every default filled in. Lane-level
// fields are validated here, per-tenant ones by TenantConfig.withDefaults.
func (cfg Config) WithDefaults() (Config, error) {
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return cfg, fmt.Errorf("live: %d workers", cfg.Workers)
	}
	if cfg.TuneInterval == 0 {
		cfg.TuneInterval = 250 * time.Millisecond
	}
	if cfg.TuneInterval < 0 {
		return cfg, fmt.Errorf("live: negative tune interval %v", cfg.TuneInterval)
	}
	if cfg.IntraOp == 0 {
		cfg.IntraOp = 1
	}
	if cfg.IntraOp < 1 || cfg.IntraOp > 64 {
		return cfg, fmt.Errorf("live: intra-op parallelism %d outside [1, 64]", cfg.IntraOp)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if !(cfg.Scale > 0 && cfg.Scale <= math.MaxFloat64) { // NaN and +Inf fail too
		return cfg, fmt.Errorf("live: scale factor %v is not a positive finite number", cfg.Scale)
	}
	tcs := cfg.Tenants
	if len(tcs) == 0 {
		if cfg.Model == nil {
			return cfg, errors.New("live: Model or Tenants is required")
		}
		tcs = []TenantConfig{{Name: cfg.Model.Cfg.Name, Model: cfg.Model, BatchSize: cfg.BatchSize, SLA: cfg.SLA}}
	} else {
		for _, f := range []struct {
			name string
			set  bool
		}{{"Model", cfg.Model != nil}, {"BatchSize", cfg.BatchSize != 0}, {"SLA", cfg.SLA != 0}} {
			if f.set {
				return cfg, fmt.Errorf("live: Config.%s is the one-tenant shorthand, set beside Tenants (write it on each tenant)", f.name)
			}
		}
	}
	cfg.Model, cfg.BatchSize, cfg.SLA = nil, 0, 0
	cfg.Tenants = make([]TenantConfig, len(tcs))
	names := make(map[string]bool, len(tcs))
	models := make(map[*model.Model]bool, len(tcs))
	for i, tc := range tcs {
		if tc.Name == "" {
			return cfg, fmt.Errorf("live: tenant %d: Name is required", i)
		}
		if names[tc.Name] {
			return cfg, fmt.Errorf("live: duplicate tenant name %q", tc.Name)
		}
		names[tc.Name] = true
		if models[tc.Model] {
			return cfg, fmt.Errorf("live: tenant %d (%s): Model instance shared with another tenant", i, tc.Name)
		}
		models[tc.Model] = true
		var err error
		if cfg.Tenants[i], err = tc.withDefaults(cfg, i); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Query is one live recommendation request: rank Candidates items for one
// user and return the TopN highest-CTR items (TopN 0 skips ranking and
// measures latency only, which load tests use). Candidates is bounded by
// workload.MaxQuerySize, the same cap every other query path enforces.
type Query struct {
	Candidates int
	TopN       int
	// Tenant selects which tenant serves the query, by index into the
	// service's tenant list (Config.Tenants order). A single-model
	// service's one tenant is index 0 — the zero value.
	Tenant int
}

// Check refuses a query no service of `tenants` tenants can serve: a size
// outside [1, workload.MaxQuerySize], a negative TopN, or a tenant index out
// of range. Submit refuses such a query before it counts it, and so does a
// fleet's front door.
func (q Query) Check(tenants int) error {
	switch {
	case q.Candidates < 1 || q.Candidates > workload.MaxQuerySize:
		return fmt.Errorf("live: candidates %d outside [1, %d]", q.Candidates, workload.MaxQuerySize)
	case q.TopN < 0:
		return fmt.Errorf("live: negative TopN %d", q.TopN)
	case q.Tenant < 0 || q.Tenant >= tenants:
		return fmt.Errorf("live: tenant %d outside [0, %d]", q.Tenant, tenants-1)
	}
	return nil
}

// Reply is the answer to one Query.
type Reply struct {
	// Recs is the TopN ranked recommendations (nil when TopN is 0).
	Recs []model.Ranked
	// Latency is the measured end-to-end query latency.
	Latency time.Duration
	// BatchSize is the per-request batch size the query was executed at:
	// the split size on the CPU lane, the whole query size when offloaded.
	BatchSize int
	// Offloaded reports whether the accelerator lane served the query.
	Offloaded bool
	// Degraded reports whether the fallback model served the query (the
	// deepest rung of the degrade ladder; slate truncation alone does not
	// set it).
	Degraded bool
	// Tenant echoes the serving tenant's index.
	Tenant int
}

// Stats is an online snapshot of the service (or, from TenantStats, of one
// tenant's slice of it): the lifetime Ledger plus everything that is not a
// counter — identity, the current knobs and gauges, the windowed
// percentiles, and the ratios derived from the ledger's sums. Merging
// snapshots adds the ledgers and recomputes the rest.
type Stats struct {
	// Tenant is the tenant's name — a single-model service's one tenant is
	// named after its model — and "" in an aggregate over several tenants.
	Tenant string
	// Share is the tenant's configured relative traffic weight (0 in
	// whole-service aggregates of a multi-tenant service).
	Share float64
	// Ledger holds the lifetime counters.
	Ledger
	// BatchSize is the current per-request batch size.
	BatchSize int
	// GPUThreshold is the current offload threshold (0 = no offload).
	GPUThreshold int
	// GPUQueryShare is the fraction of admitted queries offloaded
	// (Ledger.GPUQueryShare); GPUWorkShare is the fraction of candidate-item
	// work offloaded (Ledger.GPUWorkShare) — the live counterparts of the
	// simulator's Fig. 14 series.
	GPUQueryShare float64
	GPUWorkShare  float64
	// P50 / P95 are the windowed online latency percentiles.
	P50, P95 time.Duration
	// WindowLen is the number of samples behind the percentiles.
	WindowLen int
	// SLA echoes the configured target (0 = none).
	SLA time.Duration
	// Queued is the current admission-queue length (a gauge, not a
	// lifetime count).
	Queued int
	// DegradeLevel is the current rung of the degrade ladder (0 = full
	// service).
	DegradeLevel int
	// EmbHitRate is Ledger.EmbHitRate at snapshot time.
	EmbHitRate float64
}

// MeetsSLA reports whether the online p95 is within the target (false when
// no SLA is configured or no sample has been measured).
func (s Stats) MeetsSLA() bool {
	return s.SLA > 0 && s.WindowLen > 0 && s.P95 <= s.SLA
}

// TenantSnapshot is one tenant's part of a Snapshot: its Stats and, beside
// them, the latency histogram a merge needs and Stats do not carry.
type TenantSnapshot struct {
	Stats
	// Latency is the histogram of the latency window behind P50 / P95.
	Latency stats.Hist
}

// Snapshot is one read of a serving node: every tenant's part in tenant
// order, the node's service-time scale factor, and whether it has the
// accelerator offload lane. It carries no aggregate; Fold computes one from
// the parts.
type Snapshot struct {
	Tenants []TenantSnapshot
	Scale   float64
	GPU     bool
}

// Fold merges parts — a service's tenants, one tenant's slices across a
// fleet's members, a fleet's tenants — into one: ledgers by Ledger.Add and
// latency histograms by Hist.Add, Queued summed, percentiles and ratios
// from the sums. Knobs, SLA and DegradeLevel are the first part's; Tenant
// and Share survive only when every part names the same tenant. A fold of
// one part derives its percentiles and ratios too, so a part whose derived
// fields disagree with its counts never reaches an aggregate. Every
// aggregate Stats in the system is computed here.
func Fold(parts []TenantSnapshot) TenantSnapshot {
	if len(parts) == 0 {
		return TenantSnapshot{}
	}
	agg := parts[0]
	for _, p := range parts[1:] {
		if p.Tenant != agg.Tenant {
			agg.Tenant, agg.Share = "", 0
		}
		agg.Ledger = agg.Ledger.Add(p.Ledger)
		agg.Latency.Add(p.Latency)
		agg.Queued += p.Queued
	}
	agg.setRatios()
	return agg
}

// setRatios fills what a snapshot derives from its sums: the percentiles
// from its latency histogram and the ratios from its ledger.
func (s *TenantSnapshot) setRatios() {
	s.P50 = time.Duration(s.Latency.Percentile(50) * float64(time.Second))
	s.P95 = time.Duration(s.Latency.Percentile(95) * float64(time.Second))
	s.WindowLen = s.Latency.Count()
	s.GPUQueryShare = s.Ledger.GPUQueryShare()
	s.GPUWorkShare = s.Ledger.GPUWorkShare()
	s.EmbHitRate = s.Ledger.EmbHitRate()
}

// inflight tracks one submitted query across its units of work: batch-sized
// chunks on the CPU lane, a single whole-query request when offloaded.
type inflight struct {
	topN    int
	tn      *tenant      // serving tenant: per-tenant knobs/samplers in the lanes
	m       *model.Model // model serving this query (fallback under degrade)
	batch   int          // execution granularity, set by the serving lane
	pending atomic.Int32 // outstanding units; closing done at zero
	skip    atomic.Bool  // cancelled: lanes drop remaining work
	done    chan struct{}

	mu   sync.Mutex
	recs []model.Ranked // per-unit top-N candidates, merged at completion
}

// retire marks one unit finished, closing done on the last.
func (q *inflight) retire() {
	if q.pending.Add(-1) == 0 {
		close(q.done)
	}
}

// chunk is one batch-sized slice of a query awaiting a CPU worker.
type chunk struct {
	q    *inflight
	base int // global index of the chunk's first candidate
	size int
}

// Service is a live concurrent recommendation server. Create one with New,
// submit queries from any number of goroutines, and Close it to drain.
type Service struct {
	cfg     Config
	tenants []*tenant
	cpu     *cpuPool
	acc     *accelerator // nil = CPU-only
	scale   atomicScale  // dynamic service-time stretch (chaos slowdowns)
	delay   atomic.Int64 // injected per-query latency in ns (chaos spikes)

	failed atomic.Bool
	failCh chan struct{} // closed by Fail: aborts waits promptly

	mu       sync.Mutex
	closed   bool
	inFlight sync.WaitGroup // open Submit calls

	bgStop chan struct{}  // stops per-tenant controllers and degraders
	bgWG   sync.WaitGroup // one per running controller/degrader goroutine
}

// atomicScale is a lock-free float64 cell for the service-time scale
// factor, written by chaos slowdown injection and read per chunk/query by
// the executor lanes.
type atomicScale struct{ bits atomic.Uint64 }

func (a *atomicScale) Store(f float64) { a.bits.Store(math.Float64bits(f)) }
func (a *atomicScale) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// New starts the executor lanes (and the per-tenant controllers when
// configured) and returns a running Service.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		tenants: make([]*tenant, len(cfg.Tenants)),
		failCh:  make(chan struct{}),
	}
	for i, tc := range cfg.Tenants {
		s.tenants[i] = newTenant(i, tc)
	}
	s.scale.Store(cfg.Scale)
	s.cpu = newCPUPool(s.tenants, cfg.Workers, 8*cfg.Workers, cfg.Seed, &s.scale, cfg.IntraOp)
	if cfg.GPU != nil {
		s.acc = newAccelerator(cfg.GPU, cfg.Seed, &s.scale)
	}
	for _, t := range s.tenants {
		if cfg.AutoTune || len(t.degLadder) > 1 {
			if s.bgStop == nil {
				s.bgStop = make(chan struct{})
			}
		}
	}
	for _, t := range s.tenants {
		if cfg.AutoTune {
			s.bgWG.Add(1)
			go s.controllerFor(t)
		}
		if len(t.degLadder) > 1 {
			s.bgWG.Add(1)
			go s.degraderFor(t)
		}
	}
	return s, nil
}

// Submit serves one query: queries at or above the offload threshold go
// whole to the accelerator lane, the rest are split into batch-sized
// requests executed by the CPU worker pool. Submit blocks until the query
// completes, the context is cancelled, or the service closes. It is safe
// for concurrent use from any number of goroutines.
//
// With admission control configured, Submit first passes the admission
// gate — queries arriving beyond the concurrency limit are shed
// (ErrOverloaded), queued, or displace the oldest waiter, per the policy —
// and latency is measured from arrival, so queue wait counts against the
// SLA. A query whose deadline (the caller's, or Config.Deadline) has
// already expired is shed before it consumes an admission slot or a
// forward pass. Under degradation the candidate slate may be truncated
// and/or the fallback model served; the Stats counters record both.
func (s *Service) Submit(ctx context.Context, q Query) (Reply, error) {
	if err := q.Check(len(s.tenants)); err != nil {
		return Reply{}, err
	}
	t := s.tenants[q.Tenant]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Reply{}, ErrClosed
	}
	s.inFlight.Add(1)
	s.mu.Unlock()
	defer s.inFlight.Done()
	t.submitted.Add(1)
	if s.failed.Load() {
		t.failedQ.Add(1)
		return Reply{}, ErrReplicaDown
	}

	if t.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t.deadline)
		defer cancel()
	}
	// An already-dead context is shed before the query consumes an
	// admission slot or a forward pass.
	if err := ctx.Err(); err != nil {
		t.countAborted(err)
		return Reply{}, err
	}

	start := time.Now() // latency includes admission-queue wait
	if t.adm != nil {
		evicted, err := t.adm.admit(ctx)
		if evicted > 0 {
			// Each victim's own Submit records the shed when its admit
			// returns ErrOverloaded; here only the eviction is attributed.
			t.evicted.Add(uint64(evicted))
		}
		if err != nil {
			switch {
			case errors.Is(err, ErrOverloaded):
				t.shed.Add(1)
			case errors.Is(err, ErrReplicaDown):
				t.failedQ.Add(1)
			case errors.Is(err, ErrShutdown):
				// Queued but never started when Close began; neither
				// completed nor shed.
				t.abandoned.Add(1)
			default:
				// Deadline expiry or cancellation while queued: the query
				// never reached a lane.
				t.countAborted(err)
			}
			return Reply{}, err
		}
		defer t.adm.release()
		if err := ctx.Err(); err != nil {
			// The context died during the queue wait: shed before the
			// forward pass.
			t.countAborted(err)
			return Reply{}, err
		}
	}

	// Graceful degradation: truncate the slate and/or swap in the cheaper
	// model per the tenant's current ladder level.
	rung := t.degLadder[t.degLevel.Load()]
	candidates := q.Candidates
	if rung.truncate > 0 && candidates > rung.truncate {
		candidates = rung.truncate
		t.truncated.Add(1)
	}
	m := t.model
	degraded := false
	if rung.fallback {
		m = t.fallback
		degraded = true
		t.fallbackServed.Add(1)
	}

	iq := &inflight{topN: q.TopN, tn: t, m: m, done: make(chan struct{})}
	lane := Executor(s.cpu)
	thr := int(t.thresh.Load())
	// Fallback-model queries stay on the CPU lane: degradation exists to
	// shed compute, and the cheap variant no longer warrants the device.
	offloaded := !degraded && s.acc != nil && thr > 0 && candidates >= thr
	if offloaded {
		lane = s.acc
		t.gpuQueries.Add(1)
		t.gpuItems.Add(uint64(candidates))
	} else {
		t.cpuQueries.Add(1)
		t.cpuItems.Add(uint64(candidates))
	}

	if err := lane.Enqueue(ctx, iq, candidates); err != nil {
		t.cancelled.Add(1)
		return Reply{}, err
	}
	if err := s.awaitQuery(ctx, iq); err != nil {
		if errors.Is(err, ErrReplicaDown) {
			t.failedQ.Add(1)
		} else {
			t.cancelled.Add(1)
		}
		return Reply{}, err
	}
	if d := time.Duration(s.delay.Load()); d > 0 {
		time.Sleep(d) // injected latency spike (chaos)
	}

	latency := time.Since(start)
	t.win.Add(latency.Seconds())
	t.completed.Add(1)

	reply := Reply{Latency: latency, BatchSize: iq.batch, Offloaded: offloaded, Degraded: degraded, Tenant: q.Tenant}
	if q.TopN > 0 {
		reply.Recs = mergeTopN(iq.recs, q.TopN)
	}
	return reply, nil
}

// awaitQuery blocks until the query completes, ctx is cancelled, or the
// service is failed by fault injection. When completion and another event
// are simultaneously ready the completion wins: the work was fully
// executed, so reporting it cancelled would drop a real latency sample
// from the window and skew the Completed/Cancelled accounting.
func (s *Service) awaitQuery(ctx context.Context, iq *inflight) error {
	select {
	case <-iq.done:
		return nil
	case <-ctx.Done():
		select {
		case <-iq.done:
			return nil // completed concurrently with the cancellation
		default:
		}
		iq.skip.Store(true)
		return ctx.Err()
	case <-s.failCh:
		select {
		case <-iq.done:
			return nil // completed concurrently with the failure
		default:
		}
		iq.skip.Store(true)
		return ErrReplicaDown
	}
}

// mergeTopN merges the per-chunk candidate lists into the global top-n.
// Every chunk contributed its own top-min(n, chunkSize), so the global
// top-n is a subset of the union.
func mergeTopN(recs []model.Ranked, n int) []model.Ranked {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].CTR != recs[j].CTR {
			return recs[i].CTR > recs[j].CTR
		}
		return recs[i].Item < recs[j].Item
	})
	if n > len(recs) {
		n = len(recs)
	}
	return recs[:n]
}

// Scale returns the current service-time scale factor (1 = nominal speed).
func (s *Service) Scale() float64 { return s.scale.Load() }

// SetScale changes the service-time scale factor for subsequent work: the
// dynamic counterpart of Config.Scale, used by chaos injection to model a
// replica slowing down (co-tenancy, thermal throttling) mid-run. The CPU
// lane can only be slowed (factors below 1 floor at real execution speed);
// the accelerator lane scales its modeled time directly.
func (s *Service) SetScale(f float64) error {
	if !(f > 0 && f <= math.MaxFloat64) {
		return fmt.Errorf("live: scale factor %v is not a positive finite number", f)
	}
	s.scale.Store(f)
	return nil
}

// SetDelay injects a fixed extra latency into every subsequently completed
// query (0 clears it) — the chaos model of a transient latency spike
// (GC pause, network hiccup) that inflates measured latency without
// consuming executor capacity.
func (s *Service) SetDelay(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("live: negative injected delay %v", d)
	}
	s.delay.Store(int64(d))
	return nil
}

// Fail simulates a replica crash: every in-flight query aborts promptly
// with ErrReplicaDown (its lane work is dropped via the skip flag), queued
// admission waiters are flushed with the same error, and subsequent Submit
// calls fail fast. Fail is idempotent and does not release the service's
// resources — call Close (e.g. through the fleet's remove/restart path) to
// shut the lanes down.
func (s *Service) Fail() {
	if !s.failed.CompareAndSwap(false, true) {
		return
	}
	close(s.failCh)
	for _, t := range s.tenants {
		if t.adm != nil {
			t.adm.shutdown(ErrReplicaDown)
		}
	}
}

// Failed reports whether the service has been failed by fault injection —
// the health signal fleet routing checks.
func (s *Service) Failed() bool { return s.failed.Load() }

// OffloadThreshold is the query size at or above which the service now
// sends a tenant's queries whole to the accelerator lane: the tenant's
// offload knob as AutoTune leaves it (0 = none; always 0 without an
// accelerator, where Config refuses a threshold). It is one atomic load,
// which the fleet's size-aware router makes per candidate.
func (s *Service) OffloadThreshold(tenant int) int { return int(s.tenants[tenant].thresh.Load()) }

// Snapshot reads every tenant once, in tenant order. Stats, the fleet's
// merges and /statsz all fold these same parts, so a total and its
// breakdown are never read at different instants.
func (s *Service) Snapshot() Snapshot {
	snap := Snapshot{Tenants: make([]TenantSnapshot, len(s.tenants)), Scale: s.Scale(), GPU: s.acc != nil}
	for i, t := range s.tenants {
		snap.Tenants[i] = t.snapshot()
	}
	return snap
}

// Stats returns the service-wide online snapshot: the Fold of every
// tenant's (Snapshot carries each tenant's own).
func (s *Service) Stats() Stats { return Fold(s.Snapshot().Tenants).Stats }

// Close stops accepting queries, waits for every in-flight query to
// complete, and shuts down the executor lanes and controllers. Queries
// parked in the admission queue that never started executing are returned
// ErrShutdown immediately rather than serialized behind the backlog; Close
// waits only for queries that actually reached a lane. Close is
// idempotent; concurrent Submit calls either finish normally or observe
// ErrClosed.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	for _, t := range s.tenants {
		if t.adm != nil {
			// Flush queued-but-unstarted queries with ErrShutdown so a
			// saturated service closes in bounded time instead of serving
			// its whole backlog first.
			t.adm.shutdown(ErrShutdown)
		}
	}
	s.inFlight.Wait() // all Submits returned: no more lane admissions
	s.cpu.Close()
	if s.acc != nil {
		s.acc.Close()
	}
	if s.bgStop != nil {
		close(s.bgStop)
		s.bgWG.Wait()
	}
	return nil
}
