package deeprecsys

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/cluster"
	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// ErrServiceClosed is returned by Service.Submit after Close has begun.
var ErrServiceClosed = live.ErrClosed

// ErrOverloaded is returned by Service.Submit when admission control sheds
// the query — a retryable load-shedding signal, not a service failure.
var ErrOverloaded = live.ErrOverloaded

// ErrReplicaDown is returned by Service.Submit when an injected replica
// crash aborts the query (and, with ServeOptions.Retry, the retry also
// failed or was not possible).
var ErrReplicaDown = live.ErrReplicaDown

// ServeOptions configures a live Service. The zero value works: worker
// count defaults to GOMAXPROCS, the batch size to 256, and the SLA to the
// model's published tail-latency target.
type ServeOptions struct {
	// Workers is the CPU worker-pool size.
	Workers int
	// BatchSize is the initial per-request batch size; queries are split
	// into batch-sized requests executed in parallel by the worker pool.
	BatchSize int
	// GPUThreshold is the initial accelerator offload threshold: queries
	// of at least this many candidates are served whole by the system's
	// modeled accelerator lane (0 = no offload). Setting it requires a
	// system built WithGPU; the AutoTune controller walks this knob too
	// when an accelerator is provisioned.
	GPUThreshold int
	// SLA overrides the model's published p95 target.
	SLA time.Duration
	// AutoTune runs the DeepRecSched hill climb online: a background
	// controller retunes the batch size — and, when an accelerator is
	// provisioned, the offload threshold — against the measured p95.
	AutoTune bool
	// TuneInterval is the controller's adjustment period (default 250ms).
	TuneInterval time.Duration
	// WindowSize bounds the online latency window (default 4096 samples).
	WindowSize int
	// QueueDepth bounds the request queue (default 8 per worker).
	QueueDepth int
	// IntraOp lets a CPU worker split one big-batch request row-wise across
	// up to this many goroutines, each with its own scratch arena — purely
	// a latency knob for large queries on multi-core hosts; results are
	// bit-identical to serial execution. Default 1 (off).
	IntraOp int
	// Replicas is the fleet size: the service is a load-balancing front end
	// sharding Submit traffic across N complete replica services, each with
	// its own executor lanes, online latency window, and (with AutoTune) its
	// own controller. The default (0 or 1) is a fleet of one — the same
	// serving path at N = 1, which AddReplica, AddRemoteReplica, and
	// AutoScale grow like any other.
	Replicas int
	// RoutingPolicy picks the serving replica per query: "round-robin"
	// (the default), "least-loaded" (fewest outstanding queries),
	// "size-aware[:<n>]" (queries of >= n items steer to GPU-capable
	// replicas; n defaults to 512), "tenant-partition" (share-proportional
	// replica partitions per tenant) or "shape-spread" (interference-aware
	// placement by tenant resource shape). An unknown policy's error
	// enumerates this list from the parser's own table.
	RoutingPolicy string
	// Jitter models node-to-node performance heterogeneity: per-replica
	// service-time scale factors drawn from N(1, Jitter²) clamped to
	// ±3 Jitter — the same node-jitter model as the offline fleet
	// simulator (0 = a homogeneous fleet).
	Jitter float64
	// GPUReplicas provisions the accelerator offload lane on only the
	// first n replicas of a fleet (0 = every replica, when the system is
	// built WithGPU) — a heterogeneous fleet for size-aware routing.
	GPUReplicas int
	// Admission bounds the work each replica accepts, as a spec string:
	// "none" (the default — backpressure only from the lane queues),
	// "reject" (shed new queries at saturation), "queue:<depth>" (bounded
	// FIFO, shed when full), or "shed-oldest[:<depth>]" (bounded FIFO,
	// displace the oldest waiter). Shed queries fail with ErrOverloaded.
	Admission string
	// Deadline is the per-query latency budget applied when the caller's
	// context carries no deadline of its own (0 = none). Queries whose
	// deadline has already expired are shed before consuming a forward
	// pass, and deadline expiry during the admission-queue wait sheds the
	// query before execution.
	Deadline time.Duration
	// Degrade configures each replica's graceful-degradation ladder, as a
	// comma-separated spec: "truncate=<n>" adds a rung serving queries over
	// truncated candidate slates of at most n items, "fallback=<model>" a
	// deeper rung serving a cheaper zoo variant on the CPU lane. With an
	// SLA set, an SLA-aware controller walks the ladder under sustained
	// overload and back under restored headroom. "" or "none" disables.
	Degrade string
	// AutoScale runs the fleet autoscaler: a closed-loop controller growing
	// the fleet toward MaxReplicas while the fleet-wide online p95 breaches
	// the SLA or replicas are shedding, and shrinking toward MinReplicas
	// under sustained headroom.
	AutoScale bool
	// MinReplicas / MaxReplicas bound the autoscaler (defaults: 1 and
	// Replicas, respectively).
	MinReplicas, MaxReplicas int
	// Chaos enables fault injection on the fleet, as a spec string parsed
	// by the fleet tier: comma-separated key=value pairs among every=<dur>,
	// crash=<p>, restart=<dur>, slow=<p>, factor=<f>, spike=<p>,
	// delay=<dur>. "" or "none" disables.
	Chaos string
	// Retry resubmits a query exactly once when a replica crash aborts it
	// (health-checked routing steers the retry to a live replica).
	Retry bool
	// Access is the sparse-index popularity distribution query inputs draw
	// embedding rows from: "uniform" (the default) or "zipf[:<s>[,<v>]]"
	// for Zipf-skewed hot-row traffic (s > 1; s=1.2 approximates production
	// item popularity). Skew is what makes the hot-row cache of a system
	// built WithEmbeddingStore effective; uniform access over an at-scale
	// table is the cache-thrash scenario.
	Access string
	// Tenants serves N named tenants on one shared worker pool (and fleet)
	// instead of the single system model: each tenant binds a zoo model
	// with its own SLA, traffic share, knobs, overload defenses, and stats
	// ledger, contending for the same executor lanes. Submit splits
	// un-addressed traffic across tenants by Share; SubmitTo addresses one
	// tenant, and Stats().Tenants reports each tenant's own percentiles
	// and counters. Empty = the classic single-model service. See
	// TenantSpec and ParseTenants.
	Tenants []TenantSpec
	// ShardTables splits the embedding-row space across the fleet's
	// replicas: replica i of N maps only rows [R·i/N, R·(i+1)/N) of each
	// table and draws its query indices from that range, so the fleet holds
	// each row once instead of N times — the at-scale memory layout.
	// Routing stays query-level. Requires a system built WithEmbeddingStore
	// and Replicas >= 2; incompatible with AutoScale and AddReplica (the
	// shard layout is fixed at Serve).
	ShardTables bool
}

// Service is a live concurrent recommendation server for one System: the
// online counterpart of the offline Tune/Capacity simulator. Submit real
// queries from any number of goroutines; the service routes queries above
// the offload threshold to a modeled accelerator lane (when the system has
// one) and batches the rest across a CPU worker pool running actual model
// forward passes, tracks the online p95 against the SLA, and drains
// gracefully on Close.
//
// Every Service is a fleet: a routing front end over ServeOptions.Replicas
// complete replica services (one by default), with fleet-wide percentiles,
// per-replica stats, and live membership changes (AddReplica,
// DrainReplica, RemoveReplica). See docs/ARCHITECTURE.md for how the fleet
// tier relates to the offline cluster simulator.
type Service struct {
	fl    *fleet.Fleet
	model string

	tableRows int  // full logical embedding-table rows (0 = no tables)
	sharded   bool // table rows split across replicas: membership is fixed

	// Replica template for AddReplica: the base live config, specialized
	// per added replica with the next seed in the stream.
	base     live.Config
	nextSeed atomic.Int64

	// Store-backed fleets give every replica its own model instance so
	// per-replica cache counters stay per-replica truth (a shared model
	// would merge every replica's traffic into one cache). newReplicaModel
	// builds one more (nil on classic services); owned tracks them for
	// Close, which releases them after the fleet drains.
	newReplicaModel func() (*model.Model, error)
	ownedMu         sync.Mutex
	owned           []*model.Model

	// Multi-tenant bookkeeping (nil/empty on a single-model Service):
	// tenant names and model names in tenant order, the name index, the
	// Share-weighted splitter behind Submit, per-tenant fresh-instance
	// builders for store-backed tenants (nil entries for classic tenants,
	// which share one instance across replicas), and the MaxOutstanding
	// caps startFleet installs.
	tenantNames    []string
	tenantModels   []string
	tenantIdx      map[string]int
	split          *tenantSplit
	tenantBuilders []func() (*model.Model, error)
	tenantCaps     []int
}

// addOwned records a per-replica store-backed model for release at Close.
func (s *Service) addOwned(m *model.Model) {
	s.ownedMu.Lock()
	s.owned = append(s.owned, m)
	s.ownedMu.Unlock()
}

// Serve starts a live Service for the system's model. The system's cached
// model instance backs the worker pool(s), so a Service shares weights
// with Recommend and the real-execution engine. A system built WithGPU
// serves with the accelerator offload lane enabled, backed by the same
// analytical device model as the offline simulator.
//
// The service is ServeOptions.Replicas replica services (one by default)
// behind the ServeOptions.RoutingPolicy router, with optional node
// heterogeneity (Jitter) and a partially GPU-provisioned fleet
// (GPUReplicas).
func (s *System) Serve(opts ServeOptions) (*Service, error) {
	// A table-sharded fleet never serves from the shared full-table model —
	// each replica maps only its shard — so don't build it: at scale the
	// full table may not even be materializable on one host (that is the
	// point of sharding). A multi-tenant service doesn't build it either:
	// every forward pass runs a tenant's own model. Every other mode
	// serves the system's cached instance.
	var m *model.Model
	if len(opts.Tenants) == 0 && !(opts.ShardTables && s.store != nil) {
		var err error
		m, err = s.modelInstance()
		if err != nil {
			return nil, err
		}
	}
	gpu, err := s.serveAccelerator()
	if err != nil {
		return nil, err
	}
	if opts.GPUThreshold > 0 && gpu == nil {
		return nil, fmt.Errorf("deeprecsys: offload threshold %d set but no accelerator provisioned (use WithGPU)", opts.GPUThreshold)
	}
	sla := opts.SLA
	if sla == 0 {
		sla = s.cfg.SLAMedium
	}
	admission, err := live.ParseAdmission(opts.Admission)
	if err != nil {
		return nil, err
	}
	degrade, err := s.parseDegrade(opts.Degrade)
	if err != nil {
		return nil, err
	}
	var access workload.IndexDist
	if opts.Access != "" {
		access, err = workload.ParseAccess(opts.Access)
		if err != nil {
			return nil, err
		}
	}
	base := live.Config{
		Model:        m,
		Workers:      opts.Workers,
		BatchSize:    opts.BatchSize,
		GPU:          gpu,
		GPUThreshold: opts.GPUThreshold,
		SLA:          sla,
		AutoTune:     opts.AutoTune,
		TuneInterval: opts.TuneInterval,
		WindowSize:   opts.WindowSize,
		QueueDepth:   opts.QueueDepth,
		IntraOp:      opts.IntraOp,
		Admission:    admission,
		Deadline:     opts.Deadline,
		Degrade:      degrade,
		Access:       access,
		Seed:         s.seed,
	}
	if opts.Replicas < 0 {
		return nil, fmt.Errorf("deeprecsys: %d replicas", opts.Replicas)
	}
	if opts.Replicas == 0 {
		opts.Replicas = 1
	}
	policy, err := fleet.ParsePolicy(opts.RoutingPolicy)
	if err != nil {
		return nil, err
	}
	if opts.Jitter < 0 {
		return nil, fmt.Errorf("deeprecsys: negative jitter %v", opts.Jitter)
	}
	if opts.GPUReplicas < 0 || opts.GPUReplicas > opts.Replicas {
		return nil, fmt.Errorf("deeprecsys: GPUReplicas %d outside [0, Replicas=%d]", opts.GPUReplicas, opts.Replicas)
	}
	if opts.GPUReplicas > 0 && gpu == nil {
		return nil, errors.New("deeprecsys: GPUReplicas set but no accelerator provisioned (use WithGPU)")
	}
	chaos, err := fleet.ParseChaos(opts.Chaos)
	if err != nil {
		return nil, err
	}
	if opts.MinReplicas < 0 || opts.MaxReplicas < 0 {
		return nil, fmt.Errorf("deeprecsys: negative autoscale bounds [%d, %d]", opts.MinReplicas, opts.MaxReplicas)
	}
	if opts.ShardTables {
		if s.store == nil {
			return nil, errors.New("deeprecsys: ShardTables requires an embedding store (use WithEmbeddingStore)")
		}
		if opts.Replicas < 2 {
			return nil, errors.New("deeprecsys: ShardTables requires ServeOptions.Replicas >= 2 (one replica would hold every row)")
		}
		if opts.AutoScale {
			return nil, errors.New("deeprecsys: ShardTables is incompatible with AutoScale (the shard layout is fixed at Serve)")
		}
	}
	svc := &Service{model: s.cfg.Name, tableRows: s.logicalTableRows(), sharded: opts.ShardTables}
	if len(opts.Tenants) > 0 {
		err = s.applyTenants(svc, &base, opts)
		// A multi-tenant service reports per-tenant table geometry, not
		// the unserved system model's.
		svc.tableRows = 0
	}
	if err == nil {
		err = s.startFleet(svc, base, opts, policy, chaos)
	}
	if err != nil {
		svc.closeOwned() // models built before the failure
		return nil, err
	}
	return svc, nil
}

// logicalTableRows is the full embedding-table row count the system was
// configured with (0 when the model has no tables) — the logical table,
// even when a sharded fleet splits it across replicas.
func (s *System) logicalTableRows() int {
	if s.cfg.NumTables == 0 {
		return 0
	}
	return s.cfg.TableRows
}

// parseDegrade parses a ServeOptions.Degrade spec: "" or "none" disables;
// otherwise a comma-separated list of "truncate=<n>" (slate cap) and
// "fallback=<model>" (a cheaper zoo variant, built against the system's
// seed so degraded replies stay deterministic).
func (s *System) parseDegrade(spec string) (live.DegradeConfig, error) {
	var cfg live.DegradeConfig
	if workload.Off(spec) {
		return cfg, nil
	}
	err := workload.Pairs("deeprecsys", "degrade", workload.Fields(spec, ","), "=",
		workload.NewKey("truncate=<n>", workload.Int(&cfg.Truncate, 1)),
		workload.NewKey("fallback=<model>", func(val string) error {
			mc, err := model.ByName(val)
			if err == nil {
				cfg.Fallback, err = model.New(mc, s.seed)
			}
			return err
		}))
	if err != nil {
		return live.DegradeConfig{}, err
	}
	return cfg, nil
}

// startFleet starts the serving fleet: opts.Replicas copies of the base
// config, each with its own seed stream (replica 0 keeps the system seed), a
// speed factor from the shared node-jitter model, and — for replicas past
// GPUReplicas — no accelerator. On a store-backed system every replica of a
// multi-replica fleet additionally gets its own model instance (same model
// seed, so identical weights) so its embedding-cache counters are its own;
// with ShardTables each replica's instance maps only its shard of the row
// space. A fleet of one serves the system's cached instance. The retry,
// autoscale, and chaos layers start here, on top of the serving fleet.
// Models built before a failure are left in svc.owned for the caller.
func (s *System) startFleet(svc *Service, base live.Config, opts ServeOptions, policy fleet.Policy, chaos fleet.ChaosConfig) error {
	gpuReplicas := opts.Replicas
	if opts.GPUReplicas > 0 {
		gpuReplicas = opts.GPUReplicas
	}
	speeds := cluster.SpeedFactors(opts.Replicas, opts.Jitter, s.seed)
	cfgs := make([]live.Config, opts.Replicas)
	for i := range cfgs {
		cfgs[i] = replicaConfig(base, s.seed+replicaSeedStride*int64(i), speeds[i], base.GPU != nil && i < gpuReplicas)
	}
	svc.base = base
	// Store-backed tenants: every replica gets its own fresh instance
	// (same seed, so identical weights) so its cache counters are its own,
	// exactly like the single-model store-backed fleet below.
	for i := range cfgs {
		for ti, build := range svc.tenantBuilders {
			if build == nil {
				continue
			}
			m, err := build()
			if err != nil {
				return fmt.Errorf("deeprecsys: tenant %s: %w", svc.tenantNames[ti], err)
			}
			svc.addOwned(m)
			cfgs[i].Tenants[ti].Model = m
		}
	}
	if s.store != nil {
		newStoreModel := func(shard embstore.Shard) (*model.Model, error) {
			cfg := s.cfg
			cfg.Tables = storeOpener(*s.store, shard)
			return model.New(cfg, s.seed)
		}
		svc.newReplicaModel = func() (*model.Model, error) { return newStoreModel(embstore.Shard{}) }
		// A fleet of one keeps base.Model, the system's cached instance.
		for i := 0; i < len(cfgs) && opts.Replicas > 1; i++ {
			shard := embstore.Shard{}
			if opts.ShardTables {
				shard = embstore.Shard{Index: i, Count: opts.Replicas}
			}
			m, err := newStoreModel(shard)
			if err != nil {
				return err
			}
			svc.addOwned(m)
			cfgs[i].Model = m
		}
	}
	fl, err := fleet.New(cfgs, policy)
	if err != nil {
		return err
	}
	svc.fl = fl
	svc.nextSeed.Store(s.seed + replicaSeedStride*int64(opts.Replicas))
	fl.SetRetry(opts.Retry)
	for i, limit := range svc.tenantCaps {
		if limit > 0 {
			if err := fl.SetTenantCap(i, limit); err != nil {
				fl.Close()
				return err
			}
		}
	}
	if opts.AutoScale {
		min, max := opts.MinReplicas, opts.MaxReplicas
		if min == 0 {
			min = 1
		}
		if max == 0 {
			max = opts.Replicas
		}
		err := fl.StartAutoscale(fleet.AutoscaleConfig{
			Min:      min,
			Max:      max,
			Interval: opts.TuneInterval, // 0 = the autoscaler's own default
			NewConfig: func() live.Config {
				// Grown replicas continue the fleet's seed stream at nominal
				// speed, exactly like AddReplica.
				seed := svc.nextSeed.Add(replicaSeedStride) - replicaSeedStride
				cfg := replicaConfig(svc.base, seed, 1, svc.base.GPU != nil)
				if svc.newReplicaModel != nil {
					// Store-backed grown replicas get their own model; on a
					// build error (e.g. table files vanished) the replica
					// falls back to the shared base model rather than failing
					// the scale-up.
					if m, err := svc.newReplicaModel(); err == nil {
						svc.addOwned(m)
						cfg.Model = m
					}
				}
				return cfg
			},
		})
		if err != nil {
			fl.Close()
			return err
		}
	}
	if chaos.Crash > 0 || chaos.Slow > 0 || chaos.Spike > 0 {
		chaos.Seed = s.seed
		if err := fl.StartChaos(chaos); err != nil {
			fl.Close()
			return err
		}
	}
	return nil
}

// replicaSeedStride separates the replicas' seed streams: each replica
// derives per-worker RNGs from seed+workerIndex, so consecutive replica
// seeds would alias worker streams.
const replicaSeedStride = 7919

// replicaConfig specializes the base config for one fleet replica. The
// tenant list is deep-copied so per-replica specialization (stripping the
// accelerator, per-replica store-backed instances) never mutates the shared
// template or a sibling replica.
func replicaConfig(base live.Config, seed int64, speed float64, gpu bool) live.Config {
	cfg := base
	cfg.Seed = seed
	cfg.Scale = speed
	if len(base.Tenants) > 0 {
		cfg.Tenants = append([]live.TenantConfig(nil), base.Tenants...)
	}
	if !gpu {
		cfg.GPU = nil
		cfg.GPUThreshold = 0
		for i := range cfg.Tenants {
			cfg.Tenants[i].GPUThreshold = 0
		}
	}
	return cfg
}

// AddReplica starts one more nominal-speed replica from the fleet's base
// configuration and joins it to the routing set, returning its replica ID.
// withGPU provisions the accelerator offload lane on the new replica; it
// requires a system built WithGPU.
func (s *Service) AddReplica(withGPU bool) (int, error) {
	if s.sharded {
		return 0, errors.New("deeprecsys: cannot add a replica to a table-sharded fleet (the shard layout is fixed at Serve)")
	}
	if withGPU && s.base.GPU == nil {
		return 0, errors.New("deeprecsys: AddReplica(withGPU) on a system without an accelerator (use WithGPU)")
	}
	seed := s.nextSeed.Add(replicaSeedStride) - replicaSeedStride
	cfg := replicaConfig(s.base, seed, 1, withGPU)
	// Store-backed models: the joining replica gets its own instances, like
	// every replica at Serve — released here if the join fails, owned by
	// the service (for release at Close) once it succeeds.
	var grown []*model.Model
	fail := func(err error) (int, error) {
		for _, g := range grown {
			g.Close()
		}
		return 0, err
	}
	for ti, build := range s.tenantBuilders {
		if build == nil {
			continue
		}
		m, err := build()
		if err != nil {
			return fail(fmt.Errorf("deeprecsys: tenant %s: %w", s.tenantNames[ti], err))
		}
		grown = append(grown, m)
		cfg.Tenants[ti].Model = m
	}
	if s.newReplicaModel != nil {
		m, err := s.newReplicaModel()
		if err != nil {
			return fail(err)
		}
		grown = append(grown, m)
		cfg.Model = m
	}
	id, err := s.fl.Add(cfg)
	if err != nil {
		return fail(err)
	}
	for _, g := range grown {
		s.addOwned(g)
	}
	return id, nil
}

// DrainReplica excludes a replica from routing while its in-flight queries
// finish; the replica keeps serving them until RemoveReplica. Draining the
// last routable replica is refused.
func (s *Service) DrainReplica(id int) error { return s.fl.Drain(id) }

// RemoveReplica drains a replica, waits for its in-flight queries to
// complete, closes it, and retires it from the fleet — no query is
// dropped. Its lifetime counters fold into the fleet totals.
func (s *Service) RemoveReplica(id int) error { return s.fl.Remove(id) }

// Reply is the answer to one live query.
type Reply struct {
	// Recs is the topN ranked recommendations (nil when topN is 0).
	Recs []Recommendation
	// Latency is the measured end-to-end latency of the query.
	Latency time.Duration
	// BatchSize is the per-request batch size the query was executed at:
	// the split size on the CPU pool, the whole query size when offloaded.
	BatchSize int
	// Offloaded reports whether the accelerator lane served the query.
	Offloaded bool
	// Degraded reports whether the fallback model served the query (the
	// deepest rung of the degrade ladder).
	Degraded bool
	// Replica is the ID of the replica that served the query.
	Replica int
	// Tenant is the name of the tenant that served the query ("" on a
	// single-model Service) — on a plain Submit, the tenant the weighted
	// split picked.
	Tenant string
}

// Submit serves one live query: rank `candidates` items and return the
// `topN` highest-CTR ones (topN 0 skips ranking; load drivers use it to
// measure latency only). On a multi-tenant service the Share-weighted
// split picks the serving tenant (SubmitTo addresses one explicitly); the
// routing policy then picks the serving replica. Submit blocks
// until the query completes, ctx is cancelled, or the service closes; it
// is safe for concurrent use.
func (s *Service) Submit(ctx context.Context, candidates, topN int) (Reply, error) {
	q := live.Query{Candidates: candidates, TopN: topN}
	if s.split != nil {
		q.Tenant = s.split.next()
	}
	return s.submit(ctx, q)
}

// submit runs one tenant-resolved query through the serving stack.
func (s *Service) submit(ctx context.Context, q live.Query) (Reply, error) {
	r, replica, err := s.fl.Submit(ctx, q)
	if err != nil {
		return Reply{}, err
	}
	reply := Reply{Latency: r.Latency, BatchSize: r.BatchSize, Offloaded: r.Offloaded, Degraded: r.Degraded, Replica: replica}
	if len(s.tenantNames) > 0 {
		reply.Tenant = s.tenantNames[r.Tenant]
	}
	if q.TopN > 0 {
		reply.Recs = make([]Recommendation, len(r.Recs))
		for i, rec := range r.Recs {
			reply.Recs[i] = Recommendation{Item: rec.Item, CTR: rec.CTR}
		}
	}
	return reply, nil
}

// Ledger is the lifetime counter ledger every snapshot embeds — Submitted,
// Completed, the shed/abandon/fail dispositions, the offload, degrade and
// embedding-cache counters — declared once and merged by addition at every
// tier (tenant, replica, fleet, wire). Conserved checks its conservation
// identity; GPUWorkShare and EmbHitRate derive the ratios from its sums.
type Ledger = live.Ledger

// Stats is the online snapshot every tier reports — the lifetime Ledger
// plus everything that is not a counter: the current knobs (BatchSize,
// GPUThreshold, DegradeLevel), the Queued gauge, the windowed P50 / P95
// over WindowLen samples, the SLA and MeetsSLA, and the ratios recomputed
// from the ledger's sums (GPUQueryShare, GPUWorkShare, EmbHitRate).
// ServiceStats, ReplicaStats and TenantStats embed this one declaration.
type Stats = live.Stats

// ServiceStats is an online snapshot of a live Service.
type ServiceStats struct {
	// Model is the served model's name.
	Model string
	// Stats is the service-wide snapshot. Its Ledger sums over replicas
	// (removed ones included) — except Submitted, which counts each query
	// once at the service's front door however many replicas it tried
	// (Retried below counts the second attempts); the ratios are recomputed
	// from those sums. P50 / P95 are computed over the union of the
	// replicas' latency windows, Queued is the summed admission-queue
	// depth, BatchSize / DegradeLevel are the first replica's and
	// GPUThreshold the first GPU-capable replica's (PerReplica carries each
	// replica's own). Tenant and Share are unset at this level.
	Stats
	// Retried counts crash-triggered second submissions (ServeOptions.Retry).
	Retried uint64
	// ScaleUps / ScaleDowns count autoscaler membership moves; Crashes /
	// Restarts count injected replica failures and their recoveries.
	ScaleUps, ScaleDowns uint64
	Crashes, Restarts    uint64
	// Healthy is the number of routable replicas not currently failed
	// (equals Replicas when chaos is off).
	Healthy int
	// Replicas is the number of routable replicas.
	Replicas int
	// TableRows is the full logical embedding-table row count the system
	// was configured with (0 for models without tables), even when
	// ShardTables splits it across replicas.
	TableRows int
	// RoutingPolicy is the router's name.
	RoutingPolicy string
	// PerReplica holds per-replica snapshots in replica-ID order: each
	// entry carries that replica's own window, knobs, and ledger.
	PerReplica []ReplicaStats
	// Tenants holds per-tenant snapshots in ServeOptions.Tenants order
	// (nil on a single-model Service). The top-level counters and
	// percentiles aggregate across tenants; each Tenants entry carries one
	// tenant's own window, knobs, and ledger, measured against its own
	// SLA. Fleet totals equal the sum over tenants, membership churn
	// included.
	Tenants []TenantStats
}

// ReplicaStats is the online snapshot of one replica: its fleet identity
// (ID, Speed — the service-time scale factor drawn from ServeOptions.Jitter,
// HasGPU), its routing state (Draining, Outstanding — the count the
// least-loaded policy balances on — and Failed, which shadows the ledger's
// Failed query counter; that one reads as Ledger.Failed), and the
// replica's own Stats: window, knobs and ledger. On a table-sharded fleet
// the Emb* counters show per-shard locality.
type ReplicaStats = fleet.ReplicaStats

// Stats returns an online snapshot of the service: P50/P95 over the union
// of the replicas' latency windows, counters as fleet-lifetime sums
// including removed replicas, and the per-replica breakdown in PerReplica.
func (s *Service) Stats() ServiceStats {
	fst := s.fl.Stats()
	st := ServiceStats{
		Model:         s.model,
		Stats:         fst.Stats,
		Retried:       fst.Retried,
		ScaleUps:      fst.ScaleUps,
		ScaleDowns:    fst.ScaleDowns,
		Crashes:       fst.Crashes,
		Restarts:      fst.Restarts,
		Healthy:       fst.Healthy,
		Replicas:      fst.Size,
		TableRows:     s.tableRows,
		RoutingPolicy: fst.Policy,
		PerReplica:    fst.Replicas,
	}
	st.Submitted = fst.FrontSubmitted
	if len(s.tenantNames) > 0 {
		st.Tenants = make([]TenantStats, len(fst.Tenants))
		for i, ft := range fst.Tenants {
			st.Tenants[i] = TenantStats{
				Name:        s.tenantNames[i],
				Model:       s.tenantModels[i],
				Stats:       ft.Stats,
				Outstanding: ft.Outstanding,
				Cap:         ft.Cap,
				CapShed:     ft.CapShed,
				Shape:       ft.Shape,
			}
			// The fleet's configured share, not the first member's echo of
			// it (which a remote member reports from its own config).
			st.Tenants[i].Share = ft.Share
		}
	}
	return st
}

// BatchSize returns the current per-request batch size (the first
// replica's, when per-replica AutoTune has diverged them).
func (s *Service) BatchSize() int { return s.fl.BatchSize() }

// SetBatchSize retunes the batch size for subsequent queries (the manual
// counterpart of AutoTune) on every replica.
func (s *Service) SetBatchSize(b int) error { return s.fl.SetBatchSize(b) }

// GPUThreshold returns the current offload threshold (the first
// GPU-capable replica's; 0 = no offload).
func (s *Service) GPUThreshold() int { return s.fl.GPUThreshold() }

// SetGPUThreshold retunes the accelerator offload threshold for subsequent
// queries (the manual counterpart of the AutoTune threshold walk) on every
// GPU-capable replica: queries of at least thr candidates are served whole
// by the accelerator lane; 0 disables offload. It fails on a service
// without an accelerator.
func (s *Service) SetGPUThreshold(thr int) error { return s.fl.SetGPUThreshold(thr) }

// Close stops accepting queries, drains every in-flight query, and shuts
// the worker pools down. It then releases the service's own model
// instances (file mappings included) — after the drain, so no forward pass
// reads an unmapped table. Close is idempotent.
func (s *Service) Close() error {
	err := s.fl.Close()
	if cerr := s.closeOwned(); err == nil {
		err = cerr
	}
	return err
}

// closeOwned releases the per-replica store-backed models (idempotent).
func (s *Service) closeOwned() error {
	s.ownedMu.Lock()
	owned := s.owned
	s.owned = nil
	s.ownedMu.Unlock()
	var err error
	for _, m := range owned {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
