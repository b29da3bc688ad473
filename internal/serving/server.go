package serving

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

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
	// across nodes for datacenter-wide percentiles. The slice belongs to
	// the caller: a capacity search copies it, once per search, out of
	// the buffer its probes reuse.
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
// runs of a few thousand queries each, and recycling the queue/running
// backing arrays and the query slab keeps the hot path allocation-free.
//
// A server has at most 2 + GPUStreams pending events — the next arrival,
// the one armed CPU completion and the accelerator completions in flight —
// so it keeps them in those fields rather than in an event queue, and step
// fires the one a discrete-event queue ordered by (time, scheduling order)
// would pop: every event takes the next value of seq when it is scheduled.
type server struct {
	cfg   Config
	times *serviceTimes // the owner's table: one climb, one capacity search or one Run
	cores int
	now   time.Duration // the virtual clock: the time of the firing event
	seq   int64         // events scheduled so far

	// Arrival feeding: the stream is chained — each arrival schedules the
	// next — so one arrival event is pending at a time.
	queries []workload.Query
	fed     int
	arrival event

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
	// bit for bit). svc[i] is T(batch, busy) of running[i], priced by the
	// last arming: busy and membership change only in dispatch and retire,
	// and each is followed by a re-arm in the same event, so until the next
	// change it is the price every progress update divides by.
	running   []request
	remaining []float64
	svc       []float64
	busy      int

	lastUpdate time.Duration
	coreBusy   float64 // core-seconds of busy time

	// Completion arming: one pending completion, for the soonest-finishing
	// request. runningDirty marks that membership of the running set changed
	// since the last arming — while it is clean the armed event is still
	// exact, because progress rates only change when the active-core count
	// does, so saturated-queue arrivals skip both the rescan and the re-arm.
	armed        bool
	completion   event
	runningDirty bool

	// querySlab backs one query object per stream entry, replacing a heap
	// allocation per arrival.
	querySlab []query

	// The accelerator: queued queries by querySlab index, and the ones
	// occupying a stream with their completion event.
	gpuQueue   []int32
	gqHead     int
	gpuFlight  []gpuJob
	gpuStreams int
	gpuTotal   time.Duration

	// samples receives every measured latency. A run that may stop early
	// counts the latencies above missAbove and stops the simulation once
	// misses reaches stopAt: the p95 can no longer meet the SLA.
	samples    []float64
	missAbove  time.Duration
	misses     int
	stopAt     int
	measured   int
	cpuItems   int64
	gpuItems   int64
	gpuQueries int
	cpuQueries int
	lastFinish time.Duration
}

// event is a pending event's place in firing order: by time, then by the
// order it was scheduled in.
type event struct {
	at  time.Duration
	seq int64
}

// before reports whether e fires ahead of o.
func (e event) before(o event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// schedule returns the event at t, next in scheduling order. Scheduling in
// the past is a logic error and panics: a causality violation in a latency
// simulation silently corrupts every downstream percentile.
func (s *server) schedule(t time.Duration) event {
	if t < s.now {
		panic(fmt.Sprintf("serving: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	return event{at: t, seq: s.seq}
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
	res, _ := run(cfg, queries, times, make([]float64, 0, len(queries)), never)
	res.Latency = stats.Summarize(res.LatencySamples)
	return res
}

// never is the miss bound of a run that does not stop early.
const never = time.Duration(math.MaxInt64)

// run is Run on the caller's service-time table, for a configuration the
// caller has validated against the table's engine. It appends the latency
// samples to samples and leaves Latency for the caller to summarize. Unless
// missAbove is never, the run stops as soon as enough measured queries have
// taken longer than missAbove that its p95 must too, and then reports false
// and only LatencySamples, for the caller to reuse.
func run(cfg Config, queries []workload.Query, times *serviceTimes, samples []float64, missAbove time.Duration) (Result, bool) {
	if len(queries) == 0 {
		panic("serving: empty query stream")
	}
	s := serverPool.Get().(*server)
	s.reset(cfg, queries, times, samples, missAbove)
	for s.misses < s.stopAt && s.step() {
	}

	res := Result{LatencySamples: s.samples}
	if s.misses >= s.stopAt {
		s.releaseToPool()
		return res, false
	}
	res.Measured, res.Duration = s.measured, s.lastFinish
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
	return res, true
}

// reset prepares a pooled server for one run, reusing backing storage.
func (s *server) reset(cfg Config, queries []workload.Query, times *serviceTimes, samples []float64, missAbove time.Duration) {
	s.cfg = cfg
	s.times = times
	s.cores = times.e.Cores()
	s.gpuStreams = times.e.GPUStreams()

	s.now, s.seq = 0, 0
	s.queries = queries
	s.fed = 0
	s.arrival = s.schedule(queries[0].Arrival)

	s.queue = s.queue[:0]
	s.qHead = 0
	s.running = s.running[:0]
	s.remaining = s.remaining[:0]
	s.busy = 0
	s.lastUpdate = 0
	s.coreBusy = 0

	s.armed = false
	s.runningDirty = false

	if cap(s.querySlab) < len(queries) {
		s.querySlab = make([]query, len(queries))
	} else {
		s.querySlab = s.querySlab[:len(queries)]
	}

	s.gpuQueue = s.gpuQueue[:0]
	s.gqHead = 0
	s.gpuFlight = s.gpuFlight[:0]
	s.gpuTotal = 0

	s.samples = samples
	s.missAbove = missAbove
	s.misses = 0
	s.stopAt = math.MaxInt
	if m := len(queries) - cfg.Warmup; m > 0 {
		// The p95 interpolates upward from rank ⌊0.95·(m−1)⌋ of the m
		// sorted samples (stats.Percentile's rank, by its expression): once
		// the samples above that rank and the one at it all exceed
		// missAbove, so does the p95, up to the interpolation's rounding.
		s.stopAt = m - int(math.Floor(95.0/100*float64(m-1)))
	}
	s.measured = 0
	s.cpuItems, s.gpuItems = 0, 0
	s.gpuQueries, s.cpuQueries = 0, 0
	s.lastFinish = 0
}

// releaseToPool drops references the pool must not retain and returns the
// server for reuse. The samples are not recycled: they belong to the caller.
func (s *server) releaseToPool() {
	s.times = nil
	s.queries = nil
	s.samples = nil
	serverPool.Put(s)
}

// step fires the pending event that comes first by (time, scheduling
// order) and reports whether there was one.
func (s *server) step() bool {
	const none, feed, cpu = -3, -2, -1 // or the gpuFlight index
	which, next := none, event{}
	if s.fed < len(s.queries) {
		which, next = feed, s.arrival
	}
	if s.armed && (which == none || s.completion.before(next)) {
		which, next = cpu, s.completion
	}
	for i, j := range s.gpuFlight {
		if which == none || j.done.before(next) {
			which, next = i, j.done
		}
	}
	if which == none {
		return false
	}
	s.now = next.at
	switch which {
	case feed:
		s.feed()
	case cpu:
		s.completeCPU()
	default:
		s.gpuDone(which)
	}
	return true
}

// feed admits the next query of the stream and schedules the following
// arrival.
func (s *server) feed() {
	i := s.fed
	s.fed++
	if s.fed < len(s.queries) {
		s.arrival = s.schedule(s.queries[s.fed].Arrival)
	}
	s.arrive(i, s.queries[i], i >= s.cfg.Warmup)
}

// serviceTime returns the full-service time (seconds) of a request while
// s.busy cores are active, given that row of the owner's table: the
// table keeps the processor-sharing updates cheap and, for the
// real-execution engine, avoids re-running the model on every progress
// update. The common case, an entry already priced, inlines into the loop.
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

// advance charges the active cores for the time since the last update and
// returns it, in seconds.
func (s *server) advance() float64 {
	dt := (s.now - s.lastUpdate).Seconds()
	s.lastUpdate = s.now
	s.coreBusy += float64(dt * float64(s.busy))
	return dt
}

// updateProgress advances every running request to the current virtual time
// at the progress rate implied by the active-core count since the last
// update.
func (s *server) updateProgress() {
	dt := s.advance()
	remaining := s.remaining
	svc := s.svc[:len(remaining)] // same length: the reslice tells the compiler
	for i := range remaining {
		remaining[i] -= dt / svc[i]
	}
}

// scheduleNextCompletion prices every running request under the current
// active-core count into svc and arms the completion event for the
// soonest-finishing one. While the running set's membership is unchanged
// the armed event and the prices are still exact — progress rates only
// change with the active-core count — so the rescan and the re-arm are
// skipped entirely (the saturated-arrival fast path).
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
	s.svc = slices.Grow(s.svc[:0], len(running))[:len(running)]
	svc := s.svc
	soonest := math.Inf(1)
	for i, r := range running {
		full := s.serviceTime(row, r.batch)
		svc[i] = full
		if t := remaining[i] * full; t < soonest {
			soonest = t
		}
	}
	if soonest < 0 {
		soonest = 0
	}
	s.armed = true
	s.completion = s.schedule(s.now + time.Duration(soonest*float64(time.Second)) + 1)
}

// arrive admits one query: offload whole to the accelerator above the
// threshold, otherwise split into batch-sized requests for the core pool —
// the full ones as one run, the ragged tail as a run of one.
func (s *server) arrive(idx int, wq workload.Query, measured bool) {
	q := &s.querySlab[idx]
	*q = query{arrival: s.now, size: wq.Size, measured: measured}
	if s.cfg.GPUThreshold > 0 && wq.Size >= s.cfg.GPUThreshold {
		s.gpuQueries++
		s.gpuItems += int64(wq.Size)
		s.gpuQueue = append(s.gpuQueue, int32(idx))
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
// Callers must have advanced the running requests first and must re-arm the
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

// completeCPU advances every running request and retires the finished ones
// in one pass, refills cores from the queue, and re-arms the completion
// event.
func (s *server) completeCPU() {
	s.armed = false
	s.runningDirty = true
	dt := s.advance()
	const eps = 1e-9
	running, remaining := s.running, s.remaining[:len(s.running)]
	svc := s.svc[:len(running)]
	kept := 0
	for i, left := range remaining {
		if left -= dt / svc[i]; left <= eps {
			run := running[i]
			s.busy -= int(run.count)
			q := &s.querySlab[run.query]
			if q.remaining -= int(run.count); q.remaining == 0 {
				s.finish(q)
			}
			continue
		}
		if kept < i {
			running[kept] = running[i]
		}
		remaining[kept] = left
		kept++
	}
	s.running, s.remaining = running[:kept], remaining[:kept]
	s.dispatch()
	s.scheduleNextCompletion()
}

// gpuJob is a query occupying an accelerator stream, by querySlab index,
// and its completion event.
type gpuJob struct {
	done  event
	query int32
}

// kickGPU starts the accelerator on queued queries while stream slots are
// free. Each in-flight query occupies one stream for its full service time.
func (s *server) kickGPU() {
	for len(s.gpuFlight) < s.gpuStreams && s.gqHead < len(s.gpuQueue) {
		idx := s.gpuQueue[s.gqHead]
		s.gqHead++
		service := s.times.gpuQuery(s.querySlab[idx].size)
		s.gpuTotal += service
		s.gpuFlight = append(s.gpuFlight, gpuJob{done: s.schedule(s.now + service), query: idx})
	}
	if s.gqHead == len(s.gpuQueue) {
		s.gpuQueue = s.gpuQueue[:0]
		s.gqHead = 0
	}
}

// gpuDone frees the stream of in-flight job i, finishes its query and
// refills the stream.
func (s *server) gpuDone(i int) {
	idx, last := s.gpuFlight[i].query, len(s.gpuFlight)-1
	s.gpuFlight[i] = s.gpuFlight[last]
	s.gpuFlight = s.gpuFlight[:last]
	s.finish(&s.querySlab[idx])
	s.kickGPU()
}

// finish records one completed query.
func (s *server) finish(q *query) {
	if s.now > s.lastFinish {
		s.lastFinish = s.now
	}
	if q.measured {
		latency := s.now - q.arrival
		s.samples = append(s.samples, latency.Seconds())
		s.measured++
		if latency > s.missAbove {
			s.misses++
		}
	}
}
