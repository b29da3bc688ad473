package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/sched"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Search fidelity of the tune-sim sweep. The issue's 8000 queries at 1%
// takes over 20 s per sweep on the reference host; this fidelity keeps a
// full-zoo sweep under a second so a run holds enough sweeps for a median.
const (
	tuneSeed    = 1
	tuneQueries = 400
	tuneWarmup  = 50
	tuneRelTol  = 0.05
)

// decision is what one scheduler chose for one model.
type decision struct {
	Batch, Threshold int
	QPS              float64
}

func (d decision) equal(o decision) bool {
	return d.Batch == o.Batch && d.Threshold == o.Threshold && math.Abs(d.QPS-o.QPS) <= 1e-9*math.Abs(o.QPS)
}

// tuneGolden pins, for search seed 1, what the static baseline,
// DeepRecSchedCPU and DeepRecSchedGPU decide for each zoo model in zoo
// order. The analytical engines are deterministic, so any difference is a
// behaviour change in sched, serving, sim, platform, workload or stats.
var tuneGolden = []decision{
	// DLRM-RMC1
	{25, 0, 512},
	{512, 0, 864},
	{512, 128, 1856},
	// DLRM-RMC2
	{25, 0, 128},
	{512, 0, 216},
	{512, 128, 528},
	// DLRM-RMC3
	{25, 0, 672},
	{512, 0, 1280},
	{512, 128, 2432},
	// NCF
	{25, 0, 11264},
	{512, 0, 22528},
	{512, 256, 26624},
	// WnD
	{25, 0, 800},
	{96, 0, 1312},
	{96, 192, 2816},
	// MT-WnD
	{25, 0, 84},
	{24, 0, 84},
	{24, 96, 1088},
	// DIN
	{25, 0, 352},
	{64, 0, 416},
	{64, 128, 960},
	// DIEN
	{25, 0, 1536},
	{128, 0, 1792},
	{128, 256, 2496},
}

// tuner holds the analytical engines of the whole zoo.
type tuner struct {
	cfgs     []model.Config
	cpu, gpu []serving.Engine
}

// newTuner builds both engines for every zoo model; wrap, when not nil,
// interposes on each (the traced pass counts calls through it).
func newTuner(wrap func(serving.Engine) serving.Engine) *tuner {
	t := &tuner{cfgs: model.Zoo()}
	for _, cfg := range t.cfgs {
		var cpu, gpu serving.Engine
		cpu = serving.NewPlatformEngine(platform.Skylake(), nil, cfg)
		gpu = serving.NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), cfg)
		if wrap != nil {
			cpu, gpu = wrap(cpu), wrap(gpu)
		}
		t.cpu, t.gpu = append(t.cpu, cpu), append(t.gpu, gpu)
	}
	return t
}

func (t *tuner) opts(i int) serving.SearchOpts {
	opts := serving.DefaultSearchOpts(workload.DefaultProduction(), t.cfgs[i].SLAMedium)
	opts.Queries, opts.Warmup, opts.RelTol, opts.Seed = tuneQueries, tuneWarmup, tuneRelTol, tuneSeed
	return opts
}

// tuneModel makes the three decisions for zoo model i.
func (t *tuner) tuneModel(i int) []decision {
	opts := t.opts(i)
	var out []decision
	for _, d := range []sched.Decision{
		sched.StaticBaseline(t.cpu[i], opts),
		sched.DeepRecSchedCPU(t.cpu[i], opts),
		sched.DeepRecSchedGPU(t.gpu[i], opts),
	} {
		out = append(out, decision{d.BatchSize, d.GPUThreshold, d.QPS})
	}
	return out
}

// sweep tunes the whole zoo once: three decisions per model.
func (t *tuner) sweep() []decision {
	var out []decision
	for i := range t.cfgs {
		out = append(out, t.tuneModel(i)...)
	}
	return out
}

// printPins prints the current seed-1 sweep as the tuneGolden literal, for
// re-pinning after an intended behaviour change.
func printPins() {
	t := newTuner(nil)
	for i, d := range t.sweep() {
		if i%3 == 0 {
			fmt.Printf("\t// %s\n", t.cfgs[i/3].Name)
		}
		fmt.Printf("\t{%d, %d, %v},\n", d.Batch, d.Threshold, d.QPS)
	}
}

// mismatches counts the decisions of got that differ from want.
func mismatches(got, want []decision) int {
	n := 0
	for i := range want {
		if i >= len(got) || !got[i].equal(want[i]) {
			n++
		}
	}
	return n
}

// countingEngine counts the calls the simulator makes into an engine.
type countingEngine struct {
	serving.Engine
	calls *atomic.Int64
}

func (e countingEngine) CPURequest(batch, active int) time.Duration {
	e.calls.Add(1)
	return e.Engine.CPURequest(batch, active)
}

func (e countingEngine) GPUQuery(size int) time.Duration {
	e.calls.Add(1)
	return e.Engine.GPUQuery(size)
}

// tuneTimes collects, per zoo model, the wall time in milliseconds of each
// tuning of that model.
type tuneTimes [][]float64

// sweepMs is the time of one full-zoo sweep: the sum over the models of the
// median time to tune that model. Summing medians, not timing whole sweeps,
// keeps one slow stretch of the host out of the result and lets a slice end
// mid-sweep without wasting the part done.
func (tt tuneTimes) sweepMs() float64 {
	total := 0.0
	for _, ms := range tt {
		total += median(ms)
	}
	return total
}

// add folds one slice's times in, each multiplied by scale.
func (tt tuneTimes) add(slice tuneTimes, scale float64) {
	for i, ms := range slice {
		for _, v := range ms {
			tt[i] = append(tt[i], v*scale)
		}
	}
}

// tuneSlice runs len(cursors) concurrent tuners until the dwell ends and
// returns the time each tuning took. Each tuner walks order from its cursor,
// which persists across slices so every model is sampled evenly, and every
// decision must reproduce the pinned one.
func tuneSlice(t *tuner, order []int, cursors []int, dwell time.Duration, out *report) tuneTimes {
	runtime.GC()
	times := make(tuneTimes, len(t.cfgs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range cursors {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dwell {
				i := order[(cursors[c]+c)%len(order)]
				cursors[c]++
				t0 := time.Now()
				bad := mismatches(t.tuneModel(i), tuneGolden[3*i:3*i+3])
				ms := float64(time.Since(t0)) / 1e6
				mu.Lock()
				times[i] = append(times[i], ms)
				out.attempted += 3
				out.failed += bad
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return times
}

// runTune measures the offline path: the paper's scheduler over the
// analytical serving simulator, for the whole zoo. A "query" here is one
// full-zoo sweep. p50_ms is its time with one tuner running alone (the
// issue's tune_ms); sat_qps is the sweeps per second w concurrent tuners
// sustain, w over the sweep time measured while they run together. Like the
// serving workloads it alternates the two in five rounds, each slice between
// two readings of the host probe.
func runTune(w int, seed int64, budget time.Duration, traced bool, out *report) error {
	probe := newHostProbe(w)
	var t *tuner
	var setups []float64
	for i := 0; i < setupRepeats(traced); i++ {
		var got []decision
		start := time.Now()
		speed := probe.around(func() {
			t = newTuner(nil)
			got = t.sweep()
		})
		// The probe's own 48 ms are inside the interval; they are a
		// constant of the harness.
		setups = append(setups, time.Since(start).Seconds()*speed)
		out.attempted += len(tuneGolden)
		if bad := mismatches(got, tuneGolden); bad > 0 || len(got) != len(tuneGolden) {
			return fmt.Errorf("tune-sim: %d of %d decisions differ from the pinned sweep (bench -pins prints the current one)", bad, len(tuneGolden))
		}
	}
	out.set("setup_s", median(setups), len(setups))

	// The search stream is pinned like every other knob: the decisions are
	// only known for it, and the work a hill climb does varies by half from
	// one stream to the next. The run's seed orders the tuning requests.
	order := rand.New(rand.NewSource(seed)).Perm(len(t.cfgs))
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	n := len(t.cfgs)
	alone, together, togetherRaw := make(tuneTimes, n), make(tuneTimes, n), make(tuneTimes, n)
	one, all := make([]int, 1), make([]int, w)
	var speeds []float64
	// slice runs one probed slice and folds its times, corrected for the
	// host's speed over it, into into.
	slice := func(t *tuner, cursors []int, dwell time.Duration, into tuneTimes) tuneTimes {
		var times tuneTimes
		speed := probe.around(func() { times = tuneSlice(t, order, cursors, dwell, out) })
		into.add(times, speed)
		speeds = append(speeds, speed)
		return times
	}
	if traced {
		if err := runLadder(w, out); err != nil {
			return err
		}
		// The traced tuner counts engine calls; its cost against the plain
		// one is this workload's tracing overhead.
		var calls atomic.Int64
		counted := newTuner(func(e serving.Engine) serving.Engine { return countingEngine{e, &calls} })
		withCount, countedCursors := make(tuneTimes, n), make([]int, w)
		for i := 0; i < rounds(); i++ {
			togetherRaw.add(slice(t, all, share(0.1), together), 1)
			withCount.add(tuneSlice(counted, order, countedCursors, share(0.1), out), 1)
		}
		out.set("bench.trace_overhead_pct", (withCount.sweepMs()-togetherRaw.sweepMs())/togetherRaw.sweepMs()*100, len(withCount[0]))
	} else {
		for i := 0; i < rounds(); i++ {
			slice(t, one, share(0.12), alone)
			togetherRaw.add(slice(t, all, share(0.08), together), 1)
		}
		out.set("p50_ms", alone.sweepMs(), len(alone[0]))
	}
	out.set("sat_qps", float64(w)/together.sweepMs()*1e3, len(together[0]))
	out.set("sat_qps.raw", float64(w)/togetherRaw.sweepMs()*1e3, len(togetherRaw[0]))
	out.set("bench.host_speed", median(speeds), len(speeds))
	out.set("fail_share", float64(out.failed)/float64(out.attempted), out.attempted)
	return nil
}
