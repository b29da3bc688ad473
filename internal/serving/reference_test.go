package serving

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/sim"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// literalServer is the serving loop by its definition: one running entry and
// one float per request, the engine asked for every service time at every
// event, nothing pooled, tabled or hoisted. It arms completions exactly as
// server does — when a completion is computed decides how it rounds — and is
// what Run, which keeps one entry per run of identical requests, must
// reproduce bit for bit.
type literalServer struct {
	sim     *sim.Sim
	e       Engine
	cfg     Config
	queries []workload.Query
	slab    []query

	queue, running [][2]int // {query index, batch}
	remaining      []float64
	lastUpdate     time.Duration
	coreBusy       float64
	armed, dirty   bool
	armedSeq       int64

	gpuQueue    []*query
	gpuInFlight int
	gpuTotal    time.Duration

	samples              []float64
	lastFinish           time.Duration
	cpuItems, gpuItems   int64
	cpuQueries, gpuCount int
}

func literalRun(e Engine, cfg Config, queries []workload.Query) Result {
	s := &literalServer{sim: sim.New(), e: e, cfg: cfg, queries: queries, slab: make([]query, len(queries))}
	s.sim.At(queries[0].Arrival, func() { s.feed(0) })
	s.sim.Run()
	res := Result{Latency: stats.Summarize(s.samples), LatencySamples: s.samples, Measured: len(s.samples), Duration: s.lastFinish}
	if span := queries[len(queries)-1].Arrival - queries[0].Arrival; span > 0 {
		res.OfferedQPS = float64(len(queries)-1) / span.Seconds()
	}
	if s.lastFinish > 0 {
		res.CPUUtil = s.coreBusy / (s.lastFinish.Seconds() * float64(e.Cores()))
		res.GPUUtil = s.gpuTotal.Seconds() / (s.lastFinish.Seconds() * float64(e.GPUStreams()))
	}
	if total := s.gpuCount + s.cpuQueries; total > 0 {
		res.GPUQueryShare = float64(s.gpuCount) / float64(total)
	}
	if items := s.gpuItems + s.cpuItems; items > 0 {
		res.GPUWorkShare = float64(s.gpuItems) / float64(items)
	}
	return res
}

func (s *literalServer) feed(i int) {
	if i+1 < len(s.queries) {
		s.sim.At(s.queries[i+1].Arrival, func() { s.feed(i + 1) })
	}
	size := s.queries[i].Size
	q := &s.slab[i]
	*q = query{arrival: s.sim.Now(), size: size, measured: i >= s.cfg.Warmup}
	if s.cfg.GPUThreshold > 0 && size >= s.cfg.GPUThreshold {
		s.gpuCount++
		s.gpuItems += int64(size)
		s.gpuQueue = append(s.gpuQueue, q)
		s.kickGPU()
		return
	}
	s.cpuQueries++
	s.cpuItems += int64(size)
	for left := size; left > 0; left -= s.cfg.BatchSize {
		s.queue = append(s.queue, [2]int{i, min(left, s.cfg.BatchSize)})
		q.remaining++
	}
	s.progress()
	s.dispatch()
	s.arm()
}

// full is the service time of one request at the present active-core count.
func (s *literalServer) full(batch int) float64 {
	if t := s.e.CPURequest(batch, len(s.running)).Seconds(); t > 0 {
		return t
	}
	return 1e-12
}

func (s *literalServer) progress() {
	dt := (s.sim.Now() - s.lastUpdate).Seconds()
	s.lastUpdate = s.sim.Now()
	if dt <= 0 {
		return
	}
	s.coreBusy += dt * float64(len(s.running))
	for i, r := range s.running {
		s.remaining[i] -= dt / s.full(r[1])
	}
}

func (s *literalServer) dispatch() {
	for len(s.running) < s.e.Cores() && len(s.queue) > 0 {
		s.running, s.remaining = append(s.running, s.queue[0]), append(s.remaining, 1)
		s.queue = s.queue[1:]
		s.dirty = true
	}
}

func (s *literalServer) arm() {
	if s.armed && !s.dirty {
		return
	}
	s.dirty, s.armed = false, false
	if len(s.running) == 0 {
		return
	}
	soonest := math.Inf(1)
	for i, r := range s.running {
		if t := s.remaining[i] * s.full(r[1]); t < soonest {
			soonest = t
		}
	}
	if soonest < 0 {
		soonest = 0
	}
	s.armed = true
	s.armedSeq = s.sim.At(s.sim.Now()+time.Duration(soonest*float64(time.Second))+1, s.complete)
}

func (s *literalServer) complete() {
	if !s.armed || s.sim.FiringSeq() != s.armedSeq {
		return
	}
	s.armed, s.dirty = false, true
	s.progress()
	var running [][2]int
	var remaining []float64
	for i, r := range s.running {
		if s.remaining[i] > 1e-9 {
			running, remaining = append(running, r), append(remaining, s.remaining[i])
			continue
		}
		q := &s.slab[r[0]]
		if q.remaining--; q.remaining == 0 {
			s.finish(q)
		}
	}
	s.running, s.remaining = running, remaining
	s.dispatch()
	s.arm()
}

func (s *literalServer) kickGPU() {
	for s.gpuInFlight < s.e.GPUStreams() && len(s.gpuQueue) > 0 {
		q := s.gpuQueue[0]
		s.gpuQueue = s.gpuQueue[1:]
		s.gpuInFlight++
		service := s.e.GPUQuery(q.size)
		s.gpuTotal += service
		s.sim.After(service, func() {
			s.gpuInFlight--
			s.finish(q)
			s.kickGPU()
		})
	}
}

func (s *literalServer) finish(q *query) {
	s.lastFinish = max(s.lastFinish, s.sim.Now())
	if q.measured {
		s.samples = append(s.samples, (s.sim.Now() - q.arrival).Seconds())
	}
}

// checkedRun is run on a private server that checks, after every arrival and
// every completion pass, that busy is the sum of the running counts and no
// more than the cores, that no run is empty and that every running run has
// its float; and, at the end, that every query finished exactly once (finish
// is reached only as a query's outstanding count arrives at zero, so once at
// most; all at zero and all measured is once each). It returns the latency
// samples, which must be Run's.
func checkedRun(t *testing.T, name string, e Engine, cfg Config, queries []workload.Query) []float64 {
	t.Helper()
	times := newServiceTimes(e, cfg.BatchSize)
	defer times.release()
	s := new(server)
	s.reset(cfg, queries, times)
	check := func() {
		sum := 0
		for _, r := range s.running {
			if r.count < 1 {
				t.Fatalf("%s: running run of %d requests", name, r.count)
			}
			sum += int(r.count)
		}
		for _, r := range s.queue[s.qHead:] {
			if r.count < 1 {
				t.Fatalf("%s: queued run of %d requests", name, r.count)
			}
		}
		if sum != s.busy || s.busy > s.cores || len(s.remaining) != len(s.running) {
			t.Fatalf("%s: busy %d, running counts sum to %d in %d runs with %d floats, %d cores",
				name, s.busy, sum, len(s.running), len(s.remaining), s.cores)
		}
		if s.busy < s.cores && s.qHead < len(s.queue) {
			t.Fatalf("%s: %d of %d cores busy with requests queued", name, s.busy, s.cores)
		}
	}
	feed, complete := s.feedFn, s.completeFn
	s.feedFn = func() { feed(); check() }
	s.completeFn = func() { complete(); check() }
	s.sim.At(queries[0].Arrival, s.feedFn)
	s.sim.Run()
	for i := range s.querySlab {
		if left := s.querySlab[i].remaining; left != 0 {
			t.Fatalf("%s: query %d ends with %d requests outstanding", name, i, left)
		}
	}
	if want := max(len(queries)-cfg.Warmup, 0); s.measured != want || s.busy != 0 {
		t.Fatalf("%s: %d queries measured, want %d; %d cores busy at the end", name, s.measured, want, s.busy)
	}
	return s.latencies.Samples()
}

// compareWithReference holds one Run to the per-request reference by bits
// and to the run invariants.
func compareWithReference(t *testing.T, name string, e func() Engine, cfg Config, queries []workload.Query) {
	t.Helper()
	got, want := Run(e(), cfg, queries), literalRun(e(), cfg, queries)
	if !reflect.DeepEqual(got, want) || runBits([]Result{got}) != runBits([]Result{want}) {
		t.Fatalf("%s: Run differs from the per-request reference:\n got %+v\nwant %+v", name, got.Latency, want.Latency)
	}
	if samples := checkedRun(t, name, e(), cfg, queries); !reflect.DeepEqual(samples, got.LatencySamples) {
		t.Fatalf("%s: the checked run is not Run's", name)
	}
}

// recordedTrace is a stream no generator makes: it starts an hour in, has
// same-instant bursts, sizes on either side of a 40-core split and sizes
// above workload.MaxQuerySize.
func recordedTrace() []workload.Query {
	var qs []workload.Query
	at := time.Hour
	for i, size := range []int{1, 1000, 39, 40, 41, 2500, 80, 7, 1001, 128, 127, 129, 1536, 3, 999, 500, 25, 26, 1, 1, 640, 2048, 64, 1000} {
		if i%3 != 0 {
			at += time.Duration(i%5) * 700 * time.Microsecond
		}
		qs = append(qs, workload.Query{ID: i, Size: size, Arrival: at})
	}
	return qs
}

// TestRunMatchesPerRequestReference is the differential test of run-length
// requests: Latency, LatencySamples and their order, Duration, both
// utilizations and both shares of Run against the per-request reference.
func TestRunMatchesPerRequestReference(t *testing.T) {
	mc, err := model.ByName("DLRM-RMC1")
	if err != nil {
		t.Fatal(err)
	}
	batches := []int{1, 2, 7, 25, 40, 64, 256, 1000, 1024, 1536}
	thresholds := []int{0, 1, 128, 1001}
	streams := map[string]func(rate float64) []workload.Query{
		"poisson": workload.NewPoissonStream(workload.DefaultProduction(), 150, 5).QueriesAt,
		"uniform": workload.NewUniformStream(workload.DefaultProduction(), 150, 5).QueriesAt,
		"trace":   func(float64) []workload.Query { return recordedTrace() },
	}
	engines := map[string]struct {
		e           func() Engine
		under, over float64 // arrival rates, q/s
	}{
		"skylake":   {func() Engine { return NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), mc) }, 100, 2500},
		"broadwell": {func() Engine { return NewPlatformEngine(platform.Broadwell(), platform.DefaultGPU(), mc) }, 80, 2000},
		"one-core": {func() Engine {
			return &fakeEngine{cores: 1, perItem: 10 * time.Microsecond, withGPU: true, gpuFixed: time.Millisecond, gpuItem: time.Microsecond}
		}, 50, 5000},
		"zero-service": {func() Engine { return &fakeEngine{cores: 2, withGPU: true} }, 1000, 1e6},
	}
	for ename, eng := range engines {
		for sname, stream := range streams {
			for _, rate := range []float64{eng.under, eng.over} {
				queries := stream(rate)
				for _, b := range batches {
					for _, th := range thresholds {
						name := fmt.Sprintf("%s/%s/%vqps/b%d/t%d", ename, sname, rate, b, th)
						compareWithReference(t, name, eng.e, Config{BatchSize: b, GPUThreshold: th, Warmup: 10}, queries)
					}
				}
			}
		}
	}
}

// FuzzRunMatchesReference is the same comparison at a fuzzer-chosen
// operating point: batch size, threshold, arrival rate and stream seed.
func FuzzRunMatchesReference(f *testing.F) {
	mc, err := model.ByName("DLRM-RMC1")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), uint16(0), 300.0, int64(1))
	f.Add(uint16(24), uint16(128), 1500.0, int64(2))
	f.Add(uint16(1535), uint16(1001), 40.0, int64(3))
	f.Fuzz(func(t *testing.T, batch, threshold uint16, rate float64, seed int64) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			t.Skip()
		}
		cfg := Config{BatchSize: 1 + int(batch)%1536, GPUThreshold: int(threshold) % 1002, Warmup: int(batch) % 8}
		rate = 1 + math.Mod(math.Abs(rate), 5000)
		queries := workload.NewPoissonStream(workload.DefaultProduction(), 60, seed).QueriesAt(rate)
		e := func() Engine { return NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), mc) }
		compareWithReference(t, fmt.Sprintf("%+v at %v q/s, seed %d", cfg, rate, seed), e, cfg, queries)
	})
}
