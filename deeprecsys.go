// Package deeprecsys is an open-source reproduction of "DeepRecSys: A System
// for Optimizing End-To-End At-Scale Neural Recommendation Inference"
// (Gupta et al., ISCA 2020).
//
// The package exposes the two systems the paper builds:
//
//   - DeepRecInfra: eight industry-representative neural recommendation
//     models (NCF, Wide&Deep, MT-Wide&Deep, DLRM-RMC1/2/3, DIN, DIEN) that
//     execute real forward passes, plus an at-scale serving infrastructure
//     with Poisson query arrivals, production heavy-tailed query sizes,
//     per-model SLA tail-latency targets, and calibrated performance models
//     of server CPUs (Broadwell, Skylake) and a GPU-class accelerator.
//
//   - DeepRecSched: a hill-climbing scheduler that maximizes QPS under a
//     p95 tail-latency target by tuning the per-request batch size
//     (request- vs batch-level parallelism) and the accelerator query-size
//     threshold (offloading the heavy tail of queries).
//
// The API is organized around three composable surfaces:
//
//   - Workload — the serving scenario: query-size distribution plus arrival
//     process. The default is the paper's production workload; ParseWorkload
//     ("fixed:100@uniform", "lognormal:4.0,0.9", ...) and TraceWorkload
//     (deriving an empirical distribution from a recorded `deeprecsys
//     loadgen` CSV) build alternatives, installed per System with
//     WithWorkload.
//
//   - Engine — how service times are obtained: Analytical (the calibrated
//     platform models behind every paper artifact, GPU-capable) or
//     RealExecution (timing actual forward passes on the host). Selected
//     with WithEngine; impossible combinations (RealExecution + WithGPU)
//     fail at construction.
//
//   - Service — a live concurrent server started with System.Serve: Submit
//     real queries from any number of goroutines, and the service routes
//     queries above the offload threshold whole to a modeled accelerator
//     lane (systems built WithGPU) and batches the rest across a CPU worker
//     pool executing actual model forward passes, tracks the online p95
//     against the SLA, optionally retunes both knobs — batch size and
//     offload threshold — with a background DeepRecSched hill climb, and
//     drains gracefully on Close. Every Service is a fleet of
//     ServeOptions.Replicas replica services (one by default): a
//     load-balancing front end sharding traffic under a pluggable routing
//     policy (round-robin, least-loaded, size-aware by each replica's own
//     offload threshold), with per-replica heterogeneity and AutoTune,
//     fleet-wide online percentiles, and membership changes that never
//     drop in-flight queries.
//
// A System ties one recommendation model to one hardware platform:
//
//	sys, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake", deeprecsys.WithGPU())
//	decision, err := sys.Tune(100 * time.Millisecond)
//	fmt.Println(decision.BatchSize, decision.GPUThreshold, decision.QPS)
//
// Every table and figure of the paper's evaluation can be regenerated with
// RunExperiment (or the cmd/deeprecsys CLI); EXPERIMENTS.md records one
// full run of every artifact, and docs/ARCHITECTURE.md maps each paper
// section and figure to the package that reproduces it.
package deeprecsys

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/embstore"
	"github.com/deeprecinfra/deeprecsys/internal/experiments"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/sched"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
)

// ModelNames lists the recommendation models of the zoo (the paper's
// Table I) in reporting order.
func ModelNames() []string { return model.ZooNames() }

// PlatformNames lists the supported CPU platforms.
func PlatformNames() []string { return []string{"skylake", "broadwell"} }

// ModelInfo summarizes one zoo model for discovery and display.
type ModelInfo struct {
	Name      string
	Company   string
	Domain    string
	Class     string        // runtime bottleneck class (Table II)
	SLAMedium time.Duration // published tail-latency target (Table II)
}

// Describe returns the summary of one zoo model.
func Describe(name string) (ModelInfo, error) {
	cfg, err := model.ByName(name)
	if err != nil {
		return ModelInfo{}, err
	}
	return ModelInfo{
		Name:      cfg.Name,
		Company:   cfg.Company,
		Domain:    cfg.Domain,
		Class:     cfg.Class.String(),
		SLAMedium: cfg.SLAMedium,
	}, nil
}

// Option configures a System.
type Option func(*System)

// WithGPU provisions the GPU-class accelerator modeled in the paper's
// accelerator study (a GTX 1080Ti-class device).
func WithGPU() Option {
	return func(s *System) { s.gpu = platform.DefaultGPU() }
}

// WithSeed fixes the seed of all stochastic inputs (default 1).
func WithSeed(seed int64) Option {
	return func(s *System) { s.seed = seed }
}

// WithTableScale overrides the zoo model's embedding-table geometry: every
// table gets `rows` rows (0 = keep the zoo default of 10^4) and every query
// item `lookups` lookups per table (0 = keep the model's default). At-scale
// geometries (10^6–10^8 rows) pair with WithEmbeddingStore — materializing
// them as classic in-memory tables is possible but costs rows × dim × 4
// bytes per table up front. NewSystem rejects negative values and table
// overrides on models without embedding tables.
func WithTableScale(rows, lookups int) Option {
	return func(s *System) {
		s.tableRows, s.tableLookups = rows, lookups
		s.tableScaleSet = true
	}
}

// WithEmbeddingStore backs the model's embedding tables with a pluggable
// store instead of classic in-memory dense tensors. The spec grammar:
//
//	dense                      per-row-seeded in-memory tables
//	synth                      rows computed on demand (zero storage)
//	mmap:<dir>                 memory-mapped table files from <dir>
//	...,cache=lru:<cap>        plus an LRU hot-row cache
//	...,cache=lfu:<cap>        plus an LRU cache with frequency admission
//
// where <cap> is a row count ("50000") or a byte budget ("64MB"). Table
// files for the mmap backend are materialized with `deeprecsys tables gen`.
// All backends are row-content-identical for the same seed, so a system
// answers the same regardless of where its tables live. The spec is
// validated in NewSystem; mmap file headers are validated against the
// system's geometry when the model is built.
func WithEmbeddingStore(spec string) Option {
	return func(s *System) { s.storeSpec = spec }
}

// WithSearchFidelity sets the number of queries per capacity-search
// evaluation and the rate tolerance of the search. Larger query counts
// tighten percentile estimates at proportional cost. NewSystem rejects
// queries < 1 and relTol <= 0.
func WithSearchFidelity(queries int, relTol float64) Option {
	return func(s *System) {
		s.queries = queries
		s.relTol = relTol
	}
}

// System is one recommendation service: a model from the zoo deployed on a
// hardware platform under a configurable workload (the production
// query-size distribution by default).
type System struct {
	cfg model.Config
	cpu *platform.CPU
	gpu *platform.GPU

	wl         Workload
	engineKind EngineKind

	tableRows, tableLookups int
	tableScaleSet           bool
	storeSpec               string
	store                   *embstore.Spec // parsed storeSpec (nil = classic in-memory tables)

	seed    int64
	queries int
	relTol  float64

	// The instantiated model is built once and shared by Recommend, the
	// real-execution engine, and live Services: embedding tables are the
	// dominant construction cost, and all consumers are read-only.
	modelOnce sync.Once
	model     *model.Model
	modelErr  error
}

// NewSystem builds a System for a zoo model ("DLRM-RMC1", "NCF", ...) on a
// platform ("skylake" or "broadwell"). Option values are validated here:
// an invalid fidelity, an unknown engine kind, or an unsatisfiable
// capability combination (RealExecution with WithGPU) is a construction
// error, not a latent panic.
func NewSystem(modelName, platformName string, opts ...Option) (*System, error) {
	cfg, err := model.ByName(modelName)
	if err != nil {
		return nil, err
	}
	cpu, err := platform.CPUByName(platformName)
	if err != nil {
		return nil, fmt.Errorf("deeprecsys: %w", err)
	}
	s := &System{cfg: cfg, cpu: cpu, seed: 1, queries: 2200, relTol: 0.02}
	for _, o := range opts {
		o(s)
	}
	if s.queries < 1 {
		return nil, fmt.Errorf("deeprecsys: search fidelity needs at least one query, got %d", s.queries)
	}
	if s.relTol <= 0 {
		return nil, fmt.Errorf("deeprecsys: search tolerance must be positive, got %v", s.relTol)
	}
	if s.tableScaleSet {
		scaled, err := s.cfg.WithTableScale(s.tableRows, s.tableLookups)
		if err != nil {
			return nil, err
		}
		s.cfg = scaled
	}
	if s.storeSpec != "" {
		sp, err := embstore.ParseSpec(s.storeSpec)
		if err != nil {
			return nil, err
		}
		s.store = &sp
		s.cfg.Tables = storeOpener(sp, embstore.Shard{})
	}
	switch s.engineKind {
	case Analytical:
	case RealExecution:
		if s.gpu != nil {
			return nil, fmt.Errorf("deeprecsys: the real-execution engine has no accelerator; drop WithGPU or use the analytical engine")
		}
		// Build the model now so the engine's capability check — and any
		// configuration error — surfaces at construction.
		if _, err := s.modelInstance(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("deeprecsys: unknown engine kind %v", s.engineKind)
	}
	return s, nil
}

// storeOpener adapts an embedding-store spec to the model's table-opening
// hook, binding one shard of the row space (the zero Shard = all rows).
func storeOpener(sp embstore.Spec, shard embstore.Shard) model.TableOpener {
	return func(table, rows, dim int, _ *rand.Rand, seed int64) (nn.RowStore, error) {
		return sp.Open(seed, table, rows, dim, shard)
	}
}

// modelInstance returns the system's cached executable model, building it
// on first use.
func (s *System) modelInstance() (*model.Model, error) {
	s.modelOnce.Do(func() {
		s.model, s.modelErr = model.New(s.cfg, s.seed)
	})
	return s.model, s.modelErr
}

// Close releases the system's cached model resources — file mappings held
// by an mmap embedding store, in particular. It is a no-op for systems
// whose model was never built or uses classic in-memory tables. Close the
// system only after every Service started from it has been closed: a
// store-backed model must not serve after its mappings are released.
func (s *System) Close() error {
	s.modelOnce.Do(func() {}) // settle: no concurrent first build
	if s.model == nil {
		return nil
	}
	return s.model.Close()
}

// Model returns the system's model name.
func (s *System) Model() string { return s.cfg.Name }

// Platform returns the system's platform name.
func (s *System) Platform() string { return s.cpu.Name }

// HasGPU reports whether the accelerator is provisioned.
func (s *System) HasGPU() bool { return s.gpu != nil }

// SLA returns the model's published medium tail-latency target.
func (s *System) SLA() time.Duration { return s.cfg.SLAMedium }

// Engine returns the system's engine kind.
func (s *System) Engine() EngineKind { return s.engineKind }

// Workload returns the system's serving scenario.
func (s *System) Workload() Workload { return s.wl }

// searchOpts builds capacity-search options at the system's fidelity under
// the system's workload.
func (s *System) searchOpts(sla time.Duration) serving.SearchOpts {
	opts := serving.DefaultSearchOpts(s.wl.sizeDist(), sla)
	opts.Arrivals = s.wl.arrivalName()
	opts.Seed = s.seed
	opts.Queries = s.queries
	opts.RelTol = s.relTol
	return opts
}

// Decision is a tuned (or baseline) serving configuration with its measured
// latency-bounded throughput.
type Decision struct {
	// BatchSize is the per-request batch size.
	BatchSize int
	// GPUThreshold is the query-size offload threshold (0 = CPU only).
	GPUThreshold int
	// QPS is the maximum sustainable arrival rate under the SLA.
	QPS float64
	// P95 is the measured tail latency at that rate.
	P95 time.Duration
	// CPUUtil and GPUUtil are utilizations at that rate.
	CPUUtil float64
	GPUUtil float64
	// GPUWorkShare is the fraction of candidate-item work offloaded.
	GPUWorkShare float64
	// QPSPerWatt is throughput per watt of system power.
	QPSPerWatt float64
}

func (s *System) decision(d sched.Decision) Decision {
	pm := platform.PowerModel{CPU: s.cpu}
	if d.GPUThreshold > 0 {
		pm.GPU = s.gpu
	}
	return Decision{
		BatchSize:    d.BatchSize,
		GPUThreshold: d.GPUThreshold,
		QPS:          d.QPS,
		P95:          d.Result.P95(),
		CPUUtil:      d.Result.CPUUtil,
		GPUUtil:      d.Result.GPUUtil,
		GPUWorkShare: d.Result.GPUWorkShare,
		QPSPerWatt:   pm.QPSPerWatt(d.QPS, d.Result.GPUUtil),
	}
}

// Baseline evaluates the production static baseline: a fixed batch size
// splitting the largest query across all cores, no offload.
func (s *System) Baseline(sla time.Duration) Decision {
	return s.decision(sched.StaticBaseline(s.engine(), s.searchOpts(sla)))
}

// Tune runs DeepRecSched for the given p95 SLA: batch-size hill climbing,
// plus accelerator-threshold hill climbing when a GPU is provisioned.
func (s *System) Tune(sla time.Duration) Decision {
	e := s.engine()
	opts := s.searchOpts(sla)
	if s.gpu != nil {
		return s.decision(sched.DeepRecSchedGPU(e, opts))
	}
	return s.decision(sched.DeepRecSchedCPU(e, opts))
}

// Capacity measures the latency-bounded throughput of an explicit serving
// configuration (batch size and offload threshold) under the SLA.
func (s *System) Capacity(batch, gpuThreshold int, sla time.Duration) (Decision, error) {
	if gpuThreshold > 0 && s.gpu == nil {
		return Decision{}, fmt.Errorf("deeprecsys: GPU threshold set but no accelerator provisioned (use WithGPU)")
	}
	cfg := serving.Config{BatchSize: batch, GPUThreshold: gpuThreshold}
	if err := cfg.Validate(s.engine()); err != nil {
		return Decision{}, err
	}
	qps, res := serving.MaxQPS(s.engine(), cfg, s.searchOpts(sla))
	d := sched.Decision{BatchSize: batch, GPUThreshold: gpuThreshold, QPS: qps, Result: res}
	return s.decision(d), nil
}

// Recommendation is one ranked candidate item.
type Recommendation struct {
	Item int
	CTR  float32
}

// Recommend executes the real (not simulated) model on a random query of
// `candidates` items and returns the top-n ranked by predicted
// click-through rate — the functional serving path of the paper's Fig. 2,
// end to end: features → embeddings → interaction → predictor → ranking.
func (s *System) Recommend(candidates, n int, seed int64) ([]Recommendation, error) {
	if candidates < 1 {
		return nil, fmt.Errorf("deeprecsys: need at least one candidate, got %d", candidates)
	}
	m, err := s.modelInstance()
	if err != nil {
		return nil, err
	}
	in := m.NewInput(rand.New(rand.NewSource(seed)), candidates)
	ranked := model.RankTopN(m.Forward(in), n)
	out := make([]Recommendation, len(ranked))
	for i, r := range ranked {
		out[i] = Recommendation{Item: r.Item, CTR: r.CTR}
	}
	return out, nil
}

// ExperimentIDs lists the reproducible paper artifacts (tables/figures).
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact and returns its rendered
// report. quick selects reduced fidelity (seconds instead of minutes).
func RunExperiment(id string, quick bool) (string, error) {
	runner, err := experiments.Get(id)
	if err != nil {
		return "", err
	}
	opt := experiments.Full()
	if quick {
		opt = experiments.Quick()
	}
	return runner(opt).String(), nil
}
