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
	// under sustained headroom. A grown replica is built exactly as an
	// AddReplica one is — its own instance of every store-backed model, the
	// system's or a tenant's — so only ShardTables, whose layout is fixed at
	// Serve, excludes it.
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
//
// And every Service serves a list of slots — the tenants of
// ServeOptions.Tenants, or one anonymous slot over the System's own model.
// Both are built, grown and drained by the same code; where the one slot's
// name is "" the API reports no tenants (Tenants and Stats().Tenants nil,
// Reply.Tenant "", SubmitTo refused, no split on Submit).
type Service struct {
	fl      *fleet.Fleet
	model   string
	sharded bool // table rows split across replicas: membership is fixed

	// slots is what the service serves, in live tenant order: the tenants of
	// ServeOptions.Tenants, or the one anonymous slot (name "") over the
	// System's own model that a single-model Service is. split is the
	// Share-weighted splitter behind Submit; the anonymous slot has none.
	slots []slot
	split *tenantSplit

	// base is the template every fleet member is specialized from
	// (replicaConfig), nextSeed the members' seed stream. base holds the one
	// instance of each classic-table slot, which every member shares, and no
	// instance of a store-backed slot beyond the System's cached one: each
	// member is given its own, so its cache counters are its own.
	base     live.Config
	nextSeed atomic.Int64

	// owned is every model instance the service built — classic tenants'
	// shared ones, store-backed slots' per-member ones — for Close to
	// release after the fleet drains. The System's cached instance is the
	// System's.
	ownedMu sync.Mutex
	owned   []*model.Model
}

// slot is one (name, model) binding a Service serves.
type slot struct {
	name      string // tenant name; "" = the anonymous slot of a single-model Service
	model     string // zoo model served
	tableRows int    // full logical rows per embedding table (0 = no tables)
	cap       int    // TenantSpec.MaxOutstanding (0 = uncapped)
	// build makes one more instance of a store-backed slot's model over one
	// shard of its rows (same seed, so identical weights); nil for classic
	// in-memory tables.
	build func(embstore.Shard) (*model.Model, error)
}

// newSlot describes the slot serving cfg at seed, store-backed when sp is
// set.
func newSlot(name string, cfg model.Config, seed int64, sp *embstore.Spec) slot {
	sl := slot{name: name, model: cfg.Name}
	if cfg.NumTables > 0 {
		sl.tableRows = cfg.TableRows
	}
	if sp != nil {
		sl.build = func(shard embstore.Shard) (*model.Model, error) {
			cfg.Tables = storeOpener(*sp, shard)
			return model.New(cfg, seed)
		}
	}
	return sl
}

// own records instances the service built for release at Close.
func (s *Service) own(ms ...*model.Model) {
	s.ownedMu.Lock()
	s.owned = append(s.owned, ms...)
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
	svc := &Service{model: s.cfg.Name, sharded: opts.ShardTables, base: base}
	if len(opts.Tenants) > 0 {
		err = s.tenantSlots(svc, opts)
	} else {
		err = s.systemSlot(svc, opts)
	}
	if err == nil {
		err = s.startFleet(svc, opts, policy, chaos)
	}
	if err != nil {
		svc.closeOwned() // models built before the failure
		return nil, err
	}
	return svc, nil
}

// systemSlot makes svc the single-model Service: one anonymous slot over the
// System's own config, store and seed. It serves the system's cached
// instance, so a Service shares weights with Recommend and the
// real-execution engine — except on a table-sharded fleet, which never
// builds it: every replica maps only its shard, and at scale the full table
// may not even be materializable on one host (that is the point of
// sharding).
func (s *System) systemSlot(svc *Service, opts ServeOptions) error {
	svc.slots = []slot{newSlot("", s.cfg, s.seed, s.store)}
	if opts.ShardTables {
		return nil
	}
	m, err := s.modelInstance()
	svc.base.Model = m
	return err
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

// startFleet starts the serving fleet: opts.Replicas members built by
// replicaConfig — replica 0 keeps the system seed, speed factors come from
// the shared node-jitter model, replicas past GPUReplicas get no
// accelerator, and with ShardTables replica i of N holds shard i of every
// table. The retry, autoscale, and chaos layers start here, on top of the
// serving fleet. Models built before a failure are left in svc.owned for the
// caller.
func (s *System) startFleet(svc *Service, opts ServeOptions, policy fleet.Policy, chaos fleet.ChaosConfig) error {
	gpuReplicas := opts.Replicas
	if opts.GPUReplicas > 0 {
		gpuReplicas = opts.GPUReplicas
	}
	speeds := cluster.SpeedFactors(opts.Replicas, opts.Jitter, s.seed)
	svc.nextSeed.Store(s.seed)
	cfgs := make([]live.Config, opts.Replicas)
	for i := range cfgs {
		var shard embstore.Shard
		if opts.ShardTables {
			shard = embstore.Shard{Index: i, Count: opts.Replicas}
		}
		cfg, built, err := svc.replicaConfig(speeds[i], i < gpuReplicas, shard, opts.Replicas == 1)
		if err != nil {
			return err
		}
		svc.own(built...)
		cfgs[i] = cfg
	}
	fl, err := fleet.New(cfgs, policy)
	if err != nil {
		return err
	}
	svc.fl = fl
	fl.SetRetry(opts.Retry)
	for i, sl := range svc.slots {
		if sl.cap > 0 {
			if err := fl.SetTenantCap(i, sl.cap); err != nil {
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
			NewConfig: func() (live.Config, error) {
				// A grown replica is an added one (AddReplica): nominal speed,
				// the next seed, its own instances — the service's from here,
				// joined or not.
				cfg, built, err := svc.replicaConfig(1, true, embstore.Shard{}, false)
				svc.own(built...)
				return cfg, err
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

// replicaConfig is what every fleet member is built from — at Serve, by the
// autoscaler, by AddReplica: a copy of the base config on the next seed of
// the fleet's stream, at the given speed factor, without the accelerator
// unless gpu keeps it, holding the replica's own instance of every
// store-backed slot over its shard of the rows (the zero Shard is every
// row). sole marks the single founding member of a fleet of one, which
// serves the instance base already holds — the System's cached one. The
// built instances are the caller's to own once the replica has joined, or
// to release; on a build error the ones already built are released here.
func (s *Service) replicaConfig(speed float64, gpu bool, shard embstore.Shard, sole bool) (live.Config, []*model.Model, error) {
	cfg := s.base
	cfg.Seed = s.nextSeed.Add(replicaSeedStride) - replicaSeedStride
	cfg.Scale = speed
	cfg.Tenants = append([]live.TenantConfig(nil), s.base.Tenants...)
	if !gpu {
		cfg.GPU = nil
		cfg.GPUThreshold = 0
		for i := range cfg.Tenants {
			cfg.Tenants[i].GPUThreshold = 0
		}
	}
	var built []*model.Model
	for i, sl := range s.slots {
		// live reads the anonymous slot's instance from Config.Model — the
		// tenant it synthesizes there — and a named one's from its tenant.
		inst := &cfg.Model
		if sl.name != "" {
			inst = &cfg.Tenants[i].Model
		}
		if sl.build == nil || sole && *inst != nil {
			continue
		}
		m, err := sl.build(shard)
		if err != nil {
			closeModels(built)
			if sl.name != "" {
				err = fmt.Errorf("deeprecsys: tenant %s: %w", sl.name, err)
			}
			return live.Config{}, nil, err
		}
		built = append(built, m)
		*inst = m
	}
	return cfg, built, nil
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
	cfg, built, err := s.replicaConfig(1, withGPU, embstore.Shard{}, false)
	if err != nil {
		return 0, err
	}
	id, err := s.fl.Add(cfg)
	if err != nil {
		closeModels(built)
		return 0, err
	}
	s.own(built...)
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
	reply := Reply{Latency: r.Latency, BatchSize: r.BatchSize, Offloaded: r.Offloaded, Degraded: r.Degraded, Replica: replica, Tenant: s.slots[r.Tenant].name}
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
		RoutingPolicy: fst.Policy,
		PerReplica:    fst.Replicas,
	}
	st.Submitted = fst.FrontSubmitted
	if s.split == nil {
		// The anonymous slot is the service: its table geometry is the
		// service's, and there are no tenants to list.
		st.TableRows = s.slots[0].tableRows
		return st
	}
	st.Tenants = make([]TenantStats, len(fst.Tenants))
	for i, ft := range fst.Tenants {
		st.Tenants[i] = TenantStats{
			Name:        s.slots[i].name,
			Model:       s.slots[i].model,
			TableRows:   s.slots[i].tableRows,
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
	return closeModels(owned)
}

// closeModels releases model instances, returning the first error.
func closeModels(ms []*model.Model) error {
	var err error
	for _, m := range ms {
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
