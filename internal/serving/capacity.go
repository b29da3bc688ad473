package serving

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/stats"
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

// serviceTimes prices an engine once per operating point for its owner.
// Engine.CPURequest, once per (batch, active) pair: a dense [active][batch]
// matrix (flattened, active-major) of the engine's own seconds, NaN where not
// yet priced. Batch is bounded by the largest Config.BatchSize the owner runs
// and active by the core count, so a slice lookup replaces the engine call the
// processor-sharing loop would otherwise pay per running request per event.
// Engine.GPUQuery, once per query size: a size-indexed slice, negative where
// not yet priced, grown on demand because a recorded trace may carry sizes
// above workload.MaxQuerySize. The owner is one climb (a Search run through
// every configuration of a hill climb), or one search (MaxQPS, Evaluate), or
// one standalone Run: every probe of every search of the owner, and the
// utilization estimates before them, read one table, so with a measuring
// engine (RealEngine) a whole climb is paired on service times as
// SearchOpts.Seed pairs it on the stream. A table is never found by engine
// identity: engines are shared between concurrent searches and wrapped by
// callers.
type serviceTimes struct {
	e      Engine
	stride int
	secs   []float64
	gpu    []time.Duration
}

// timesPool recycles table storage (half a megabyte at batch 1536 on 40
// cores) across owners.
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
	st.gpu = st.gpu[:0]
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

// gpuQuery returns the engine's accelerator time for a whole query of the
// given size.
func (st *serviceTimes) gpuQuery(size int) time.Duration {
	for len(st.gpu) <= size {
		st.gpu = append(st.gpu, -1)
	}
	if st.gpu[size] < 0 {
		st.gpu[size] = st.e.GPUQuery(size)
	}
	return st.gpu[size]
}

// Search carries what the capacity searches of one hill climb share: the
// pre-generated query-stream shape and a reusable realization buffer, the
// sizes behind the utilization estimate, the service-time table every probe
// reads, and the latency buffers every probe fills — all fixed by the engine
// and the SearchOpts, none by the configuration searched. One seeded stream
// shape serves every probed rate of every configuration — only the arrival
// gaps scale — so a climb stops regenerating the identical workload per
// evaluation and re-pricing the engine per search. Per configuration it holds
// the per-query service demand behind the stability pre-filter and the best
// probe so far. A warm Search's probes allocate nothing: the running probe
// fills one samples buffer, the best passing probe's are kept in another, and
// the two swap when a probe passes; a search allocates once, the copy of the
// kept samples its Result returns. A Search is not safe for concurrent use.
type Search struct {
	e    Engine
	opts SearchOpts

	stream    *workload.PoissonStream
	buf       []workload.Query
	times     *serviceTimes
	utilSizes [utilSampleQueries]int

	// probed holds the running probe's samples, kept the best passing
	// probe's, whose Result, aliasing kept, is best. scratch is where a
	// probe's p95 is selected and the returned Result summarized, so
	// neither reorders a probe's samples.
	probed, kept, scratch []float64
	best                  Result

	cfg         Config
	perQueryCPU float64
	perQueryGPU float64
	simulated   int // probes that passed the pre-filter and ran the simulator

	// Brackets are numbered from 1 as they are opened. configured is the
	// number of the one cfg and the per-query demands are set for (0 when
	// none is), keptBy that of the one whose passing probe best is.
	brackets, configured, keptBy int
}

// NewSearch returns a Search on e for configurations of batch size up to
// maxBatch. The caller calls Release after its last search.
func NewSearch(e Engine, opts SearchOpts, maxBatch int) *Search {
	s := &Search{e: e, opts: opts, times: newServiceTimes(e, maxBatch)}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5eedfeed))
	for i := range s.utilSizes {
		s.utilSizes[i] = opts.Sizes.Sample(rng)
	}
	return s
}

// Release returns the search's pooled storage; s must not be used afterwards.
func (s *Search) Release() { s.times.release() }

// newCapacitySearch returns a Search set to its one configuration.
func newCapacitySearch(e Engine, cfg Config, opts SearchOpts) *Search {
	s := NewSearch(e, opts, cfg.BatchSize)
	s.configure(cfg)
	return s
}

// configure points the search at one configuration and estimates the mean
// service demand one query imposes on the CPU pool and the accelerator under
// it, by pricing the requests of the sampled query sizes at full contention
// (the operating regime near capacity). The estimate is independent of the
// arrival rate, so every probe of the configuration reuses it.
func (s *Search) configure(cfg Config) {
	cfg.Warmup = s.opts.Warmup
	if err := cfg.Validate(s.e); err != nil {
		panic(err)
	}
	if cfg.BatchSize >= s.times.stride {
		panic(fmt.Sprintf("serving: batch size %d on a Search built for at most %d", cfg.BatchSize, s.times.stride-1))
	}
	s.cfg = cfg
	cores := s.e.Cores()
	var cpuSec, gpuSec float64
	for _, size := range s.utilSizes {
		if cfg.GPUThreshold > 0 && size >= cfg.GPUThreshold {
			gpuSec += s.times.gpuQuery(size).Seconds()
			continue
		}
		full := size / cfg.BatchSize
		if full > 0 {
			cpuSec += float64(float64(full) * s.times.at(cfg.BatchSize, cores))
		}
		if tail := size % cfg.BatchSize; tail > 0 {
			cpuSec += s.times.at(tail, cores)
		}
	}
	s.perQueryCPU, s.perQueryGPU = cpuSec/utilSampleQueries, gpuSec/utilSampleQueries
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
	defer search.Release()
	return search.evaluate(qps)
}

// overloaded is the stability pre-filter: utilization above 1 means the
// offered work exceeds the hardware's service rate, and no finite-stream
// simulation can make such a rate sustainable. Rejecting it outright guards
// the search against the finite-stream artifact where a grossly overloaded
// run "meets" the SLA because its whole backlog fits within one SLA window.
func (s *Search) overloaded(qps float64) bool {
	cpuUtil := qps * s.perQueryCPU / float64(s.e.Cores())
	gpuUtil := qps * s.perQueryGPU / float64(s.e.GPUStreams())
	return cpuUtil > 1 || gpuUtil > 1
}

// evaluate is Evaluate with the probe-invariant state hoisted: identical
// semantics, shared stream shape and service-time table.
func (s *Search) evaluate(qps float64) (Result, bool) {
	if s.overloaded(qps) {
		return Result{}, false
	}
	res, _ := run(s.cfg, s.arrivals(qps), s.times, make([]float64, 0, s.opts.Queries), never)
	res.Latency = stats.Summarize(res.LatencySamples)
	return res, s.meets(res)
}

// arrivals realizes the stream at qps into the search's buffer, counting a
// simulation. The stream is generated lazily so a search whose every rate
// the pre-filter rejects costs no stream generation at all.
func (s *Search) arrivals(qps float64) []workload.Query {
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
		n := s.opts.Queries
		samples := make([]float64, 3*n)
		s.probed, s.kept, s.scratch = samples[:0:n], samples[n:n:2*n], samples[2*n:2*n]
	}
	s.simulated++
	s.buf = s.stream.AppendQueriesAt(s.buf[:0], qps)
	return s.buf
}

// meets reports whether a run of the search's stream meets the SLA at p95
// and drained promptly.
func (s *Search) meets(res Result) bool {
	if res.Measured == 0 || res.P95() > s.opts.SLA {
		return false
	}
	drain := res.Duration - s.buf[len(s.buf)-1].Arrival
	return drain <= 2*s.opts.SLA
}

// stopMargin is how far past the SLA a probe's latency must be to count
// toward stopping it: the margin covers the p95's interpolation rounding and
// Result.P95's truncation to whole nanoseconds, so a stopped probe is one
// that would have missed.
const stopMargin = time.Microsecond

// probe is evaluate for the search's own probes: it decides what evaluate
// decides at qps, but a run stops as soon as its p95 is certain to miss the
// SLA, the p95 of one that finishes is selected rather than sorted out, and
// nothing is allocated. A passing probe becomes s.best, its samples s.kept;
// its Latency holds only P95 until result summarizes it.
func (s *Search) probe(qps float64) bool {
	if s.overloaded(qps) {
		return false
	}
	res, finished := run(s.cfg, s.arrivals(qps), s.times, s.probed[:0], s.opts.SLA+stopMargin)
	s.probed = res.LatencySamples
	if !finished || res.Measured == 0 {
		return false
	}
	s.scratch = append(s.scratch[:0], res.LatencySamples...)
	res.Latency.P95 = stats.SelectPercentile(s.scratch, 95)
	if !s.meets(res) {
		return false
	}
	s.best, s.keptBy = res, s.configured
	s.probed, s.kept = s.kept, s.probed
	return true
}

// result returns s.best, summarized, with a copy of its samples: the one
// allocation of a warm search.
func (s *Search) result() Result {
	res := s.best
	res.LatencySamples = slices.Clone(s.kept)
	s.scratch = append(s.scratch[:0], s.kept...)
	res.Latency = stats.SummarizeInPlace(s.scratch)
	return res
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
// passed — is returned with its Result. A Bracket runs the same steps a
// probe at a time.
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
	search := NewSearch(e, opts, cfg.BatchSize)
	defer search.Release()
	return search.MaxQPS(cfg)
}

// MaxQPS is the package's MaxQPS for one configuration of a climb, on the
// climb's shared stream and service times.
func (s *Search) MaxQPS(cfg Config) (float64, Result) {
	s.configure(cfg)
	return s.maxQPS()
}

// maxQPS searches the configuration s is set to.
func (s *Search) maxQPS() (float64, Result) {
	b := s.bracket()
	return b.Close()
}

// Bracket is the capacity search of one configuration, run a probe at a
// time: until it is done, the rate MaxQPS returns for the configuration lies
// in [lo, hi); once done, lo == hi is that rate. A hill climb that only asks
// whether one capacity beats another by a margin narrows each bracket only
// until its bounds settle the question. The brackets of one Search share its
// stream, table and buffers; any number may be open, narrowed in any order.
type Bracket struct {
	s          *Search
	id         int
	cfg        Config
	lo, hi     float64
	descending bool // the gate has passed and no power of two below hi has
}

// Bracket opens the capacity search of cfg on s without simulating: its
// bounds are 0 and the analytic ceiling.
func (s *Search) Bracket(cfg Config) Bracket {
	s.configure(cfg)
	return s.bracket()
}

// bracket opens a Bracket on the configuration s is set to.
func (s *Search) bracket() Bracket {
	if s.opts.Queries <= s.opts.Warmup {
		panic("serving: SearchOpts.Queries must exceed Warmup")
	}
	hi := 2.0
	for hi <= s.opts.MaxQPS && !s.overloaded(hi) {
		hi *= 2
	}
	s.brackets++
	s.configured = s.brackets
	return Bracket{s: s, id: s.brackets, cfg: s.cfg, hi: hi}
}

// Bounds returns the bracket's bounds: the capacity lies in [lo, hi), or is
// lo once lo == hi.
func (b *Bracket) Bounds() (lo, hi float64) { return b.lo, b.hi }

// Narrow runs the search's next probe — the gate, a step of the descent or
// one of the bisection, in MaxQPS's order — and tightens the bounds by it.
// It must not be called on a done bracket.
func (b *Bracket) Narrow() {
	if b.lo == b.hi {
		panic("serving: narrowing a done Bracket")
	}
	b.configure()
	switch {
	case b.lo == 0: // the gate
		if !b.s.probe(1) {
			b.hi = 0
			return
		}
		b.lo, b.descending = 1, true
	case b.descending:
		if rate := b.hi / 2; b.s.probe(rate) {
			b.lo, b.descending = rate, false
		} else {
			b.hi = rate
		}
	default:
		if mid := (b.lo + b.hi) / 2; b.s.probe(mid) {
			b.lo = mid
		} else {
			b.hi = mid
		}
	}
	if b.descending && b.hi/2 > b.lo {
		return
	}
	b.descending = false
	if b.hi > b.s.opts.MaxQPS || b.hi/b.lo-1 <= b.s.opts.RelTol {
		b.hi = b.lo // capped, or bisected to tolerance
	}
}

// Close narrows the bracket until it is done and returns what MaxQPS returns
// for its configuration.
func (b *Bracket) Close() (float64, Result) {
	for b.lo != b.hi {
		b.Narrow()
	}
	if b.lo == 0 {
		return 0, Result{}
	}
	if b.s.keptBy != b.id {
		// Another bracket's probes have replaced the kept samples: replay
		// the last passing probe, the same rate on the same stream and table.
		b.configure()
		if !b.s.probe(b.lo) {
			panic("serving: the replayed probe failed")
		}
	}
	return b.lo, b.s.result()
}

// configure sets the search to the bracket's configuration, unless it is
// set to it already.
func (b *Bracket) configure() {
	if b.s.configured != b.id {
		b.s.configure(b.cfg)
		b.s.configured = b.id
	}
}
