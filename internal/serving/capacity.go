package serving

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// SearchOpts parameterizes the latency-bounded throughput search. The zero
// value is not valid; use DefaultSearchOpts and override as needed.
type SearchOpts struct {
	// Sizes draws query working-set sizes.
	Sizes workload.SizeDist
	// SLA is the p95 tail-latency bound.
	SLA time.Duration
	// Queries per evaluation (including warmup).
	Queries int
	// Warmup queries excluded from tail statistics.
	Warmup int
	// Arrivals selects the arrival process probed by the search:
	// "poisson" (the production default; "" means poisson) or "uniform"
	// (evenly spaced arrivals, isolating queueing from burstiness).
	Arrivals string
	// Seed makes every evaluation use the same query stream shape, so
	// comparisons between configurations are paired.
	Seed int64
	// RelTol terminates the bisection when hi/lo-1 < RelTol.
	RelTol float64
	// MaxQPS caps the exponential probe (guards degenerate cost models).
	MaxQPS float64
}

// DefaultSearchOpts returns the experiment-default search parameters for a
// given workload and SLA.
func DefaultSearchOpts(sizes workload.SizeDist, sla time.Duration) SearchOpts {
	return SearchOpts{
		Sizes:   sizes,
		SLA:     sla,
		Queries: 2200,
		Warmup:  200,
		Seed:    1,
		RelTol:  0.02,
		MaxQPS:  2e6,
	}
}

// utilSampleQueries sizes the work-rate estimate behind the stability
// pre-filter.
const utilSampleQueries = 300

// serviceTimes prices Engine.CPURequest once per (batch, active) pair for
// its owner: a dense [active][batch] matrix (flattened, active-major) of the
// engine's own seconds, NaN where not yet priced. Batch is bounded by
// Config.BatchSize and active by the core count, so a slice lookup replaces
// the engine call the processor-sharing loop would otherwise pay per running
// request per event. The owner is one capacity search — every probe of the
// search, and the utilization estimate before the first, read one table, so
// with a measuring engine (RealEngine) the probes are paired on service
// times as SearchOpts.Seed pairs them on the stream — or one standalone Run.
// A table is never found by engine identity: engines are shared between
// concurrent searches and wrapped by callers.
type serviceTimes struct {
	e      Engine
	stride int
	secs   []float64
}

// timesPool recycles table storage (a third of a megabyte at batch 1024 on
// 40 cores) across owners.
var timesPool = sync.Pool{New: func() interface{} { return new(serviceTimes) }}

// newServiceTimes returns an empty table for requests of up to maxBatch
// items on e. The owner calls release when its last run has finished.
func newServiceTimes(e Engine, maxBatch int) *serviceTimes {
	st := timesPool.Get().(*serviceTimes)
	st.e = e
	st.stride = maxBatch + 1
	need := (e.Cores() + 1) * st.stride
	if cap(st.secs) < need {
		st.secs = make([]float64, need)
	}
	st.secs = st.secs[:need]
	for i := range st.secs {
		st.secs[i] = math.NaN()
	}
	return st
}

// release returns the table's storage to the pool.
func (st *serviceTimes) release() {
	st.e = nil
	timesPool.Put(st)
}

// at returns the engine's service time, in seconds, for one batch-sized
// request while active cores are busy.
func (st *serviceTimes) at(batch, active int) float64 {
	idx := active*st.stride + batch
	t := st.secs[idx]
	if math.IsNaN(t) {
		t = st.e.CPURequest(batch, active).Seconds()
		st.secs[idx] = t
	}
	return t
}

// row returns the table's entries for one active-core count, indexed by
// batch size, for loops that look up many requests under the same count. An
// entry that is NaN must be read through at, which prices it.
func (st *serviceTimes) row(active int) []float64 {
	return st.secs[active*st.stride : (active+1)*st.stride]
}

// perQuerySeconds estimates the mean service demand one query imposes on
// the CPU pool and the accelerator, by sampling query sizes and pricing
// their requests at full contention (the operating regime near capacity).
// The estimate is independent of the arrival rate, so a capacity search
// computes it once and reuses it at every probe.
func perQuerySeconds(times *serviceTimes, cfg Config, opts SearchOpts) (cpuSecPerQuery, gpuSecPerQuery float64) {
	e, cores := times.e, times.e.Cores()
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5eedfeed))
	var cpuSec, gpuSec float64
	for i := 0; i < utilSampleQueries; i++ {
		size := opts.Sizes.Sample(rng)
		if cfg.GPUThreshold > 0 && size >= cfg.GPUThreshold {
			gpuSec += e.GPUQuery(size).Seconds()
			continue
		}
		full := size / cfg.BatchSize
		if full > 0 {
			cpuSec += float64(full) * times.at(cfg.BatchSize, cores)
		}
		if tail := size % cfg.BatchSize; tail > 0 {
			cpuSec += times.at(tail, cores)
		}
	}
	return cpuSec / utilSampleQueries, gpuSec / utilSampleQueries
}

// Evaluate runs one serving simulation at the given Poisson arrival rate and
// reports whether the configuration sustains it: the offered work must fit
// within the hardware's service capacity, the p95 tail must meet the SLA,
// and the backlog must drain promptly after the last arrival (a stable
// server finishes its last query within roughly one query latency of the
// final arrival).
func Evaluate(e Engine, cfg Config, opts SearchOpts, qps float64) (Result, bool) {
	if qps <= 0 {
		panic(fmt.Sprintf("serving: non-positive rate %v", qps))
	}
	search := newCapacitySearch(e, cfg, opts)
	defer search.times.release()
	return search.evaluate(qps)
}

// capacitySearch carries the probe-invariant state of one capacity search:
// the pre-generated query-stream shape, a reusable realization buffer, the
// service-time table every probe reads, and the per-query service demand
// behind the stability pre-filter. One seeded stream shape serves every
// probed rate — only the arrival gaps scale — so the search stops
// regenerating the identical workload per evaluation.
type capacitySearch struct {
	e    Engine
	cfg  Config
	opts SearchOpts

	stream      *workload.PoissonStream
	buf         []workload.Query
	times       *serviceTimes
	perQueryCPU float64
	perQueryGPU float64
	simulated   int // probes that passed the pre-filter and ran the simulator
}

func newCapacitySearch(e Engine, cfg Config, opts SearchOpts) *capacitySearch {
	cfg.Warmup = opts.Warmup
	if err := cfg.Validate(e); err != nil {
		panic(err)
	}
	times := newServiceTimes(e, cfg.BatchSize)
	cpuSec, gpuSec := perQuerySeconds(times, cfg, opts)
	return &capacitySearch{
		e:           e,
		cfg:         cfg,
		opts:        opts,
		times:       times,
		perQueryCPU: cpuSec,
		perQueryGPU: gpuSec,
	}
}

// overloaded is the stability pre-filter: utilization above 1 means the
// offered work exceeds the hardware's service rate, and no finite-stream
// simulation can make such a rate sustainable. Rejecting it outright guards
// the search against the finite-stream artifact where a grossly overloaded
// run "meets" the SLA because its whole backlog fits within one SLA window.
func (s *capacitySearch) overloaded(qps float64) bool {
	cpuUtil := qps * s.perQueryCPU / float64(s.e.Cores())
	gpuUtil := qps * s.perQueryGPU / float64(s.e.GPUStreams())
	return cpuUtil > 1 || gpuUtil > 1
}

// evaluate is Evaluate with the probe-invariant state hoisted: identical
// semantics, shared stream shape and service-time table. The stream is
// generated lazily so a rate the pre-filter rejects costs no stream
// generation at all.
func (s *capacitySearch) evaluate(qps float64) (Result, bool) {
	if s.overloaded(qps) {
		return Result{}, false
	}
	if s.stream == nil {
		switch s.opts.Arrivals {
		case "", "poisson":
			s.stream = workload.NewPoissonStream(s.opts.Sizes, s.opts.Queries, s.opts.Seed)
		case "uniform":
			s.stream = workload.NewUniformStream(s.opts.Sizes, s.opts.Queries, s.opts.Seed)
		default:
			panic(fmt.Sprintf("serving: unknown arrival process %q", s.opts.Arrivals))
		}
		s.buf = make([]workload.Query, 0, s.opts.Queries)
	}
	s.simulated++
	s.buf = s.stream.AppendQueriesAt(s.buf[:0], qps)
	res := run(s.cfg, s.buf, s.times)
	if res.Measured == 0 || res.P95() > s.opts.SLA {
		return res, false
	}
	drain := res.Duration - s.buf[len(s.buf)-1].Arrival
	return res, drain <= 2*s.opts.SLA
}

// MaxQPS finds the highest arrival rate (Poisson by default; see
// SearchOpts.Arrivals) whose p95 latency meets the SLA for the given
// configuration: the paper's "latency-bounded throughput" metric.
//
// The search has four steps. A gate probe at 1 q/s: when even a trickle of
// load misses the SLA — a batch size whose single request outlasts it, say —
// the configuration cannot serve this model at this target at all and MaxQPS
// returns 0 and a zero Result. An analytic ceiling: hi doubles from 2,
// without simulating, until it is a rate the utilization pre-filter rejects
// (the first power of two at which the offered work exceeds what the
// hardware can serve; the pre-filter is the one every probe passes through,
// so no probe at or above it could succeed) or exceeds opts.MaxQPS. A
// descent: hi/2, hi/4, … are simulated until one is feasible; that is lo,
// every rate tried above it lowered hi. If hi is still above opts.MaxQPS the
// search is capped and returns lo unrefined. Otherwise [lo, hi] is bisected
// until hi/lo-1 <= RelTol, and lo — always a rate that was simulated and
// passed — is returned with its Result.
//
// The bracket is the one an ascending probe (2, 4, 8, … until the first
// failure) finds, without simulating the feasible rates below it, provided
// feasibility is monotone over the powers of two: every power below the
// first infeasible one passes and every power above it fails. The bisection
// assumes as much inside the bracket. Were it not so, the descent settles on
// the highest feasible power of two below the analytic ceiling, not on the
// lowest infeasible one.
//
// Every probe of the search replays one pre-generated stream shape, which
// is bit-identical to regenerating the seeded stream per probe (see
// workload.PoissonStream) at a fraction of the cost.
func MaxQPS(e Engine, cfg Config, opts SearchOpts) (float64, Result) {
	if opts.Queries <= opts.Warmup {
		panic("serving: SearchOpts.Queries must exceed Warmup")
	}
	search := newCapacitySearch(e, cfg, opts)
	defer search.times.release()
	return search.maxQPS()
}

// maxQPS is MaxQPS on an already constructed search.
func (s *capacitySearch) maxQPS() (float64, Result) {
	lo := 1.0
	bestRes, ok := s.evaluate(lo)
	if !ok {
		return 0, Result{}
	}

	hi := 2.0
	for hi <= s.opts.MaxQPS && !s.overloaded(hi) {
		hi *= 2
	}
	for probe := hi / 2; probe > lo; probe /= 2 {
		if r, ok := s.evaluate(probe); ok {
			lo, bestRes = probe, r
			break
		}
		hi = probe
	}
	if hi > s.opts.MaxQPS {
		return lo, bestRes
	}

	// Bisect to tolerance.
	for hi/lo-1 > s.opts.RelTol {
		mid := (lo + hi) / 2
		if r, ok := s.evaluate(mid); ok {
			lo, bestRes = mid, r
		} else {
			hi = mid
		}
	}
	return lo, bestRes
}
