package serving

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/sim"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Config selects one serving-policy operating point: the two knobs
// DeepRecSched tunes (per-request batch size, accelerator query-size
// threshold) plus the warmup prefix excluded from tail statistics.
type Config struct {
	// BatchSize is the per-request batch size: queries are split into
	// ceil(size/BatchSize) requests executed by parallel cores.
	BatchSize int
	// GPUThreshold offloads queries with Size >= GPUThreshold to the
	// accelerator, whole. 0 disables offloading. A threshold of 1 sends
	// every query to the accelerator (the hill climber's start state).
	GPUThreshold int
	// Warmup is the number of leading queries excluded from statistics
	// while queues fill to steady state.
	Warmup int
}

// Validate checks the configuration against an engine's capabilities.
func (c Config) Validate(e Engine) error {
	if c.BatchSize < 1 {
		return fmt.Errorf("serving: batch size %d < 1", c.BatchSize)
	}
	if c.GPUThreshold < 0 {
		return fmt.Errorf("serving: negative GPU threshold %d", c.GPUThreshold)
	}
	if c.GPUThreshold > 0 && !e.HasGPU() {
		return fmt.Errorf("serving: GPU threshold %d set on CPU-only engine", c.GPUThreshold)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("serving: negative warmup %d", c.Warmup)
	}
	return nil
}

// Result summarizes one serving run.
type Result struct {
	// Latency is the distribution of measured query latencies (seconds),
	// excluding warmup.
	Latency stats.Summary
	// LatencySamples holds the raw measured latencies (seconds) backing
	// Latency, in completion order. Fleet experiments aggregate these
	// across nodes for datacenter-wide percentiles.
	LatencySamples []float64
	// Measured is the number of queries contributing to Latency.
	Measured int
	// OfferedQPS is the empirical arrival rate of the query stream.
	OfferedQPS float64
	// Duration is the virtual time from first arrival to last completion.
	Duration time.Duration
	// CPUUtil is mean busy-core fraction over the run.
	CPUUtil float64
	// GPUUtil is the accelerator's busy fraction over the run.
	GPUUtil float64
	// GPUQueryShare is the fraction of queries offloaded; GPUWorkShare is
	// the fraction of items (candidate-item work) offloaded — the "% work
	// processed by GPU" series of paper Fig. 14.
	GPUQueryShare float64
	GPUWorkShare  float64
}

// P95 returns the p95 query latency of the run.
func (r Result) P95() time.Duration {
	return time.Duration(r.Latency.P95 * float64(time.Second))
}

// P99 returns the p99 query latency of the run.
func (r Result) P99() time.Duration {
	return time.Duration(r.Latency.P99 * float64(time.Second))
}

// query tracks one in-flight query.
type query struct {
	arrival   time.Duration
	size      int
	remaining int // outstanding split requests
	measured  bool
}

// request is a run of count identical batch-sized slices of one query,
// awaiting or holding count cores. A query is split into at most two runs —
// its size/BatchSize full requests, then the ragged tail as a run of one —
// and a queued run is split again only by dispatch, when fewer cores are idle
// than it has members. It names its query by querySlab index: no pointers, so
// moving requests between and within the queue and the running set pays no
// write barriers.
type request struct {
	query int32
	batch int32
	count int32
}

// server is the single-node serving simulation state. Servers are pooled
// and reused across Run calls: every capacity search performs dozens of
// runs of a few thousand queries each, and recycling the event heap, the
// queue/running backing arrays and the query slab keeps the hot path
// allocation-free.
type server struct {
	sim   *sim.Sim
	cfg   Config
	times *serviceTimes // the owner's table: one climb, one capacity search or one Run
	cores int

	// Arrival feeding: instead of pre-scheduling one event per query, the
	// stream is chained — each arrival schedules the next — keeping the
	// event heap small (O(active cores), not O(queries)).
	queries []workload.Query
	fed     int
	feedFn  func()

	queue []request // FIFO central dispatch queue; qHead is its pop cursor
	qHead int

	// The requests executing on cores, as parallel slices: every member of
	// the run running[i] has remaining[i] of its unit of work left (1 at
	// dispatch), and busy — the sum of the running counts — cores are active.
	// The CPU pool is simulated with processor-sharing dynamics for the
	// chip's shared resources: a request's progress rate is 1/T(batch, busy)
	// units of work per second, re-evaluated whenever the number of active
	// cores changes. Freezing the service time at dispatch — the quasi-static
	// shortcut — lets a finite stream exceed the chip's aggregate bandwidth
	// during ramp-up, inflating measured capacity beyond the physical
	// ceiling. The members of a run share one float because they would hold
	// equal ones: dispatched together they start at 1, and every update
	// subtracts from each the same quotient for their batch size. A run
	// stands where its members would stand side by side, so the loops visit
	// queries in the order a per-request array gives, retire a run's members
	// in one event, and finish queries — hence fill LatencySamples — in that
	// order (TestRunMatchesPerRequestReference holds Run to such an array,
	// bit for bit). The per-event loops price T once per stretch of
	// neighbouring runs of one batch size.
	running   []request
	remaining []float64
	busy      int

	lastUpdate time.Duration
	coreBusy   float64 // core-seconds of busy time

	// Completion arming. A single pre-bound event closure is scheduled for
	// the soonest-finishing request; armedSeq records the sim sequence
	// number of the live event, so stale heap entries — armed before a
	// later membership change — fail the identity check even when they were
	// scheduled for the identical virtual timestamp (a fire-time comparison
	// cannot tell those apart). runningDirty marks that membership of the
	// running set changed since the last arming — while it is clean the
	// armed event is still exact, because progress rates only change when
	// the active-core count does, so saturated-queue arrivals skip both the
	// rescan and the event churn.
	armed        bool
	armedSeq     int64
	runningDirty bool
	completeFn   func()

	// querySlab backs one query object per stream entry, replacing a heap
	// allocation per arrival.
	querySlab []query

	gpuQueue    []*query
	gqHead      int
	gpuInFlight int
	gpuStreams  int
	gpuTotal    time.Duration

	latencies  *stats.Recorder
	measured   int
	cpuItems   int64
	gpuItems   int64
	gpuQueries int
	cpuQueries int
	lastFinish time.Duration
}

// serverPool recycles server state across runs. Run is single-threaded per
// server; the pool only makes concurrent runs (parallel sweeps) share spare
// instances safely.
var serverPool = sync.Pool{New: func() interface{} { return new(server) }}

// Run executes the serving simulation over a pre-generated query stream and
// returns the measured tail-latency and utilization summary. The stream
// must be in arrival order (as produced by workload.Generator).
func Run(e Engine, cfg Config, queries []workload.Query) Result {
	if err := cfg.Validate(e); err != nil {
		panic(err)
	}
	times := newServiceTimes(e, cfg.BatchSize)
	defer times.release()
	return run(cfg, queries, times)
}

// run is Run on the caller's service-time table, for a configuration the
// caller has validated against the table's engine.
func run(cfg Config, queries []workload.Query, times *serviceTimes) Result {
	if len(queries) == 0 {
		panic("serving: empty query stream")
	}
	s := serverPool.Get().(*server)
	s.reset(cfg, queries, times)
	s.sim.At(queries[0].Arrival, s.feedFn)
	s.sim.Run()

	res := Result{
		Latency:        s.latencies.Summary(),
		LatencySamples: s.latencies.Samples(),
		Measured:       s.measured,
		Duration:       s.lastFinish,
	}
	// The offered rate is inter-arrival based: last minus first arrival,
	// not last alone — a recorded trace preserves absolute offsets, so a
	// stream captured mid-day starts nowhere near t=0.
	if span := queries[len(queries)-1].Arrival - queries[0].Arrival; span > 0 {
		res.OfferedQPS = float64(len(queries)-1) / span.Seconds()
	}
	if s.lastFinish > 0 {
		res.CPUUtil = s.coreBusy / (s.lastFinish.Seconds() * float64(s.cores))
		res.GPUUtil = s.gpuTotal.Seconds() / (s.lastFinish.Seconds() * float64(s.gpuStreams))
	}
	if total := s.gpuQueries + s.cpuQueries; total > 0 {
		res.GPUQueryShare = float64(s.gpuQueries) / float64(total)
	}
	if items := s.gpuItems + s.cpuItems; items > 0 {
		res.GPUWorkShare = float64(s.gpuItems) / float64(items)
	}
	s.releaseToPool()
	return res
}

// reset prepares a pooled server for one run, reusing backing storage.
func (s *server) reset(cfg Config, queries []workload.Query, times *serviceTimes) {
	if s.sim == nil {
		s.sim = sim.New()
	} else {
		s.sim.Reset()
	}
	if s.feedFn == nil {
		s.feedFn = s.feed
		s.completeFn = s.completeCPU
	}
	s.cfg = cfg
	s.times = times
	s.cores = times.e.Cores()
	s.gpuStreams = times.e.GPUStreams()

	s.queries = queries
	s.fed = 0

	s.queue = s.queue[:0]
	s.qHead = 0
	s.running = s.running[:0]
	s.remaining = s.remaining[:0]
	s.busy = 0
	s.lastUpdate = 0
	s.coreBusy = 0

	s.armed = false
	s.armedSeq = 0
	s.runningDirty = false

	if cap(s.querySlab) < len(queries) {
		s.querySlab = make([]query, len(queries))
	} else {
		s.querySlab = s.querySlab[:len(queries)]
	}

	s.gpuQueue = s.gpuQueue[:0]
	s.gqHead = 0
	s.gpuInFlight = 0
	s.gpuTotal = 0

	s.latencies = stats.NewRecorder(len(queries)) // escapes via Result
	s.measured = 0
	s.cpuItems, s.gpuItems = 0, 0
	s.gpuQueries, s.cpuQueries = 0, 0
	s.lastFinish = 0
}

// releaseToPool drops references the pool must not retain and returns the
// server for reuse. The recorder is not recycled: its samples alias the
// returned Result.
func (s *server) releaseToPool() {
	s.times = nil
	s.queries = nil
	s.latencies = nil
	serverPool.Put(s)
}

// feed admits the next query of the stream and schedules the following
// arrival. Chaining keeps only one pending arrival event at a time.
func (s *server) feed() {
	i := s.fed
	s.fed++
	if s.fed < len(s.queries) {
		s.sim.At(s.queries[s.fed].Arrival, s.feedFn)
	}
	s.arrive(i, s.queries[i], i >= s.cfg.Warmup)
}

// serviceTime returns the full-service time (seconds) of a request while
// s.busy cores are active, given that row of the owner's table: the
// table keeps the processor-sharing updates cheap and, for the
// real-execution engine, avoids re-running the model on every progress
// update. The common case, an entry already priced, inlines into the loops.
func (s *server) serviceTime(row []float64, batch int32) float64 {
	if t := row[batch]; t > 0 {
		return t
	}
	return s.slowServiceTime(batch)
}

// slowServiceTime prices an entry on first use — at busy, the active-core
// count, not at the number of runs — and keeps progress rates finite for
// degenerate engines that price a request at zero.
//
//go:noinline
func (s *server) slowServiceTime(batch int32) float64 {
	if t := s.times.at(int(batch), s.busy); t > 0 {
		return t
	}
	return 1e-12
}

// updateProgress advances every running request to the current virtual time
// at the progress rate implied by the active-core count since the last
// update.
func (s *server) updateProgress() {
	now := s.sim.Now()
	dt := (now - s.lastUpdate).Seconds()
	s.lastUpdate = now
	if dt <= 0 || len(s.running) == 0 {
		return
	}
	running, remaining := s.running, s.remaining[:len(s.running)] // same length: the reslice tells the compiler
	row := s.times.row(s.busy)
	s.coreBusy += dt * float64(s.busy)
	for i := 0; i < len(running); {
		batch := running[i].batch
		done := dt / s.serviceTime(row, batch)
		for ; i < len(running) && running[i].batch == batch; i++ {
			remaining[i] -= done
		}
	}
}

// scheduleNextCompletion arms a completion event for the soonest-finishing
// running request under the current active-core count. While the running
// set's membership is unchanged the previously armed event is still exact —
// progress rates only change with the active-core count — so the rescan and
// the event push are skipped entirely (the saturated-arrival fast path).
func (s *server) scheduleNextCompletion() {
	if s.armed && !s.runningDirty {
		return
	}
	s.runningDirty = false
	s.armed = false
	if len(s.running) == 0 {
		return
	}
	running, remaining := s.running, s.remaining[:len(s.running)]
	row := s.times.row(s.busy)
	soonest := math.Inf(1)
	for i := 0; i < len(running); {
		batch := running[i].batch
		full := s.serviceTime(row, batch)
		for ; i < len(running) && running[i].batch == batch; i++ {
			if t := remaining[i] * full; t < soonest {
				soonest = t
			}
		}
	}
	if soonest < 0 {
		soonest = 0
	}
	s.armed = true
	fire := s.sim.Now() + time.Duration(soonest*float64(time.Second)) + 1
	s.armedSeq = s.sim.At(fire, s.completeFn)
}

// arrive admits one query: offload whole to the accelerator above the
// threshold, otherwise split into batch-sized requests for the core pool —
// the full ones as one run, the ragged tail as a run of one.
func (s *server) arrive(idx int, wq workload.Query, measured bool) {
	q := &s.querySlab[idx]
	*q = query{arrival: s.sim.Now(), size: wq.Size, measured: measured}
	if s.cfg.GPUThreshold > 0 && wq.Size >= s.cfg.GPUThreshold {
		s.gpuQueries++
		s.gpuItems += int64(wq.Size)
		s.gpuQueue = append(s.gpuQueue, q)
		s.kickGPU()
		return
	}
	s.cpuQueries++
	s.cpuItems += int64(wq.Size)
	if full := wq.Size / s.cfg.BatchSize; full > 0 {
		s.queue = append(s.queue, request{query: int32(idx), batch: int32(s.cfg.BatchSize), count: int32(full)})
		q.remaining = full
	}
	if tail := wq.Size % s.cfg.BatchSize; tail > 0 {
		s.queue = append(s.queue, request{query: int32(idx), batch: int32(tail), count: 1})
		q.remaining++
	}
	s.updateProgress()
	s.dispatch()
	s.scheduleNextCompletion()
}

// dispatch moves queued requests onto idle cores: as much of the head run as
// there are idle cores, as one running run; what does not fit stays queued.
// Callers must have called updateProgress first and must re-arm the
// completion event afterwards.
func (s *server) dispatch() {
	for s.busy < s.cores && s.qHead < len(s.queue) {
		head := &s.queue[s.qHead]
		run := *head
		run.count = min(run.count, int32(s.cores-s.busy))
		s.running = append(s.running, run)
		s.remaining = append(s.remaining, 1)
		s.busy += int(run.count)
		if head.count -= run.count; head.count == 0 {
			s.qHead++
		}
		s.runningDirty = true
	}
	if s.qHead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qHead = 0
	}
}

// completeCPU retires every finished request, refills cores from the queue,
// and re-arms the completion event. Stale heap entries — armed before a
// later membership change — fail the armedSeq identity check and fall
// through, even when the superseding arming landed on the identical virtual
// timestamp.
func (s *server) completeCPU() {
	if !s.armed || s.sim.FiringSeq() != s.armedSeq {
		return // superseded by a later state change
	}
	s.armed = false
	s.runningDirty = true
	s.updateProgress()
	const eps = 1e-9
	kept := 0
	for i, left := range s.remaining {
		if left <= eps {
			run := s.running[i]
			s.busy -= int(run.count)
			q := &s.querySlab[run.query]
			if q.remaining -= int(run.count); q.remaining == 0 {
				s.finish(q)
			}
			continue
		}
		s.running[kept], s.remaining[kept] = s.running[i], left
		kept++
	}
	s.running, s.remaining = s.running[:kept], s.remaining[:kept]
	s.dispatch()
	s.scheduleNextCompletion()
}

// kickGPU starts the accelerator on queued queries while stream slots are
// free. Each in-flight query occupies one stream for its full service time.
func (s *server) kickGPU() {
	for s.gpuInFlight < s.gpuStreams && s.gqHead < len(s.gpuQueue) {
		q := s.gpuQueue[s.gqHead]
		s.gqHead++
		s.gpuInFlight++
		service := s.times.gpuQuery(q.size)
		s.gpuTotal += service
		s.sim.After(service, func() {
			s.gpuInFlight--
			s.finish(q)
			s.kickGPU()
		})
	}
	if s.gqHead == len(s.gpuQueue) {
		s.gpuQueue = s.gpuQueue[:0]
		s.gqHead = 0
	}
}

// finish records one completed query.
func (s *server) finish(q *query) {
	now := s.sim.Now()
	if now > s.lastFinish {
		s.lastFinish = now
	}
	if q.measured {
		s.latencies.Add((now - q.arrival).Seconds())
		s.measured++
	}
}
