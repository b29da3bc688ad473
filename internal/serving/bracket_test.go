package serving

import (
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// maxQPSAscending is the bracket MaxQPS used before it descended from the
// analytic ceiling, kept as the reference the descent is compared with: it
// doubles the rate up from 1 q/s with a probe per step until one fails or
// the cap is passed, then bisects exactly as maxQPS does.
func maxQPSAscending(opts SearchOpts, evaluate func(qps float64) (Result, bool)) (float64, Result) {
	lo := 1.0
	bestRes, ok := evaluate(lo)
	if !ok {
		return 0, Result{}
	}
	hi := 2.0
	for hi <= opts.MaxQPS {
		r, ok := evaluate(hi)
		if !ok {
			break
		}
		lo, bestRes = hi, r
		hi *= 2
	}
	if hi > opts.MaxQPS {
		return lo, bestRes
	}
	for hi/lo-1 > opts.RelTol {
		mid := (lo + hi) / 2
		if r, ok := evaluate(mid); ok {
			lo, bestRes = mid, r
		} else {
			hi = mid
		}
	}
	return lo, bestRes
}

// benchOpts is the search fidelity cmd/bench's tune-sim workload runs at.
func benchOpts(sla time.Duration) SearchOpts {
	opts := DefaultSearchOpts(workload.DefaultProduction(), sla)
	opts.Queries, opts.Warmup, opts.RelTol = 400, 50, 0.05
	return opts
}

// bracketTally sums the simulations both brackets spent over a grid.
type bracketTally struct{ searches, descending, ascending int }

func (b bracketTally) log(t *testing.T) {
	t.Logf("%d searches: %d simulations descending, %d ascending", b.searches, b.descending, b.ascending)
}

// compareBrackets runs one search both ways, each on its own capacitySearch,
// and requires the same rate (==) and the same Result (DeepEqual: every
// latency sample, in order).
func compareBrackets(t *testing.T, tally *bracketTally, name string, e Engine, cfg Config, opts SearchOpts) {
	t.Helper()
	down := newCapacitySearch(e, cfg, opts)
	gotQPS, gotRes := down.maxQPS()
	down.times.release()
	up := newCapacitySearch(e, cfg, opts)
	wantQPS, wantRes := maxQPSAscending(opts, up.evaluate)
	up.times.release()
	tally.searches++
	tally.descending += down.simulated
	tally.ascending += up.simulated
	if gotQPS != wantQPS {
		t.Errorf("%s: descending bracket %v q/s, ascending %v q/s", name, gotQPS, wantQPS)
	} else if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("%s: both brackets return %v q/s but the Results differ", name, gotQPS)
	}
}

// zooBracketGrid compares the two brackets for every zoo model on both CPU
// generations, CPU-only (threshold 0) and with the accelerator (every
// threshold), under both arrival processes.
func zooBracketGrid(t *testing.T, slas []model.SLATarget, seeds []int64, batches, thresholds []int) {
	var tally bracketTally
	for _, mc := range model.Zoo() {
		for _, cpu := range []*platform.CPU{platform.Skylake(), platform.Broadwell()} {
			for _, gpu := range []*platform.GPU{nil, platform.DefaultGPU()} {
				e := NewPlatformEngine(cpu, gpu, mc)
				ths := thresholds
				if gpu == nil {
					ths = []int{0}
				}
				for _, level := range slas {
					for _, seed := range seeds {
						for _, arrivals := range []string{"poisson", "uniform"} {
							opts := benchOpts(mc.SLA(level))
							opts.Seed, opts.Arrivals = seed, arrivals
							for _, b := range batches {
								for _, th := range ths {
									name := fmt.Sprintf("%s/%s/gpu=%t/%v/seed%d/%s/b%d/t%d", mc.Name, cpu.Name, gpu != nil, level, seed, arrivals, b, th)
									compareBrackets(t, &tally, name, e, Config{BatchSize: b, GPUThreshold: th}, opts)
								}
							}
						}
					}
				}
			}
		}
	}
	tally.log(t)
}

// TestMaxQPSMatchesAscendingProbe is the differential test of the descending
// bracket: over the zoo it must return what the ascending probe returns, to
// the last bit of the last latency sample; and on flat-cost engines it must
// reproduce the capped return, the [1, 2] bracket and the zero-capacity gate
// for every small cap.
func TestMaxQPSMatchesAscendingProbe(t *testing.T) {
	t.Run("zoo", func(t *testing.T) {
		zooBracketGrid(t, []model.SLATarget{model.SLAMedium}, []int64{1, 2},
			[]int{1, 25, 64, 256, 1024}, []int{0, 1, 128, 1001})
	})
	t.Run("flat", func(t *testing.T) {
		var tally bracketTally
		cpuOnly := []Config{{BatchSize: 1}, {BatchSize: 32}, {BatchSize: 1024}}
		offload := []Config{{BatchSize: 32, GPUThreshold: 1}, {BatchSize: 32, GPUThreshold: 300}}
		for _, perItem := range []time.Duration{0, time.Nanosecond, time.Microsecond, 10 * time.Millisecond} {
			for _, cores := range []int{1, 4, 40} {
				for _, limit := range []float64{1, 2, 3, 100, 1e4, 2e6} {
					for _, sla := range []time.Duration{time.Microsecond, time.Millisecond, 100 * time.Millisecond} {
						opts := benchOpts(sla)
						opts.MaxQPS = limit
						for i, cfg := range append(cpuOnly, offload...) {
							e := &fakeEngine{cores: cores, perItem: perItem}
							if i >= len(cpuOnly) {
								e.withGPU, e.gpuFixed, e.gpuItem = true, time.Millisecond, perItem/8
							}
							name := fmt.Sprintf("perItem=%v/cores=%d/cap=%v/sla=%v/b%d/t%d", perItem, cores, limit, sla, cfg.BatchSize, cfg.GPUThreshold)
							compareBrackets(t, &tally, name, e, cfg, opts)
						}
					}
				}
			}
		}
		tally.log(t)
	})
}

// TestMaxQPSMatchesAscendingProbeFullGrid is the same comparison over the
// whole grid: 8 models × 2 CPUs × 3 SLAs × 3 seeds × 2 arrival processes ×
// 16 batch sizes × (1 CPU-only + 5 accelerator thresholds) = 27,648 searches,
// a few minutes. It runs only when named: CI's "Offline path identity" step
// passes -run 'TestMaxQPSMatchesAscendingProbe', which matches it.
func TestMaxQPSMatchesAscendingProbeFullGrid(t *testing.T) {
	if flag.Lookup("test.run").Value.String() == "" {
		t.Skip("minutes long; run with -run TestMaxQPSMatchesAscendingProbe")
	}
	zooBracketGrid(t, model.AllSLATargets(), []int64{1, 2, 3},
		[]int{1, 2, 4, 8, 16, 24, 25, 32, 64, 96, 128, 256, 384, 512, 768, 1024},
		[]int{0, 1, 64, 128, 1001})
}

// TestMaxQPSSimulatesFewProbes pins what the descent buys at the benchmark's
// fidelity: the ascending probe simulated 12 rates to find DLRM-RMC1's
// capacity at batch 256 and 17 for NCF's; from the analytic ceiling it takes
// the gate, one or two powers of two and the bisection steps the pre-filter
// does not reject.
func TestMaxQPSSimulatesFewProbes(t *testing.T) {
	for _, name := range []string{"DLRM-RMC1", "NCF"} {
		mc, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := newCapacitySearch(NewPlatformEngine(platform.Skylake(), nil, mc), Config{BatchSize: 256}, benchOpts(mc.SLAMedium))
		qps, _ := s.maxQPS()
		s.times.release()
		if qps == 0 || s.simulated > 5 {
			t.Errorf("%s: %d simulated probes for %v q/s, want at most 5", name, s.simulated, qps)
		}
	}
}

// pairCounter counts how often each (batch, active) pair and each offloaded
// query size is priced.
type pairCounter struct {
	Engine
	priced map[[2]int]int
	sizes  map[int]int
}

func (p *pairCounter) CPURequest(batch, active int) time.Duration {
	p.priced[[2]int{batch, active}]++
	return p.Engine.CPURequest(batch, active)
}

func (p *pairCounter) GPUQuery(size int) time.Duration {
	p.sizes[size]++
	return p.Engine.GPUQuery(size)
}

// TestMaxQPSPricesEachPairOnce: the service-time table belongs to the Search,
// so the utilization estimates and every probe of every configuration the
// Search is run through — one for a MaxQPS, all of a hill climb's for a
// climb — together price a (batch, active) pair, and an offloaded query size,
// at most once.
func TestMaxQPSPricesEachPairOnce(t *testing.T) {
	mc, err := model.ByName("DLRM-RMC1")
	if err != nil {
		t.Fatal(err)
	}
	newCounter := func() *pairCounter {
		return &pairCounter{Engine: NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), mc), priced: map[[2]int]int{}, sizes: map[int]int{}}
	}
	check := func(name string, e *pairCounter, offloads bool) {
		t.Helper()
		if len(e.priced) < 2*e.Cores() || offloads && len(e.sizes) < 10 {
			t.Errorf("%s: only %d pairs and %d sizes priced; the search exercised nothing", name, len(e.priced), len(e.sizes))
		}
		for pair, n := range e.priced {
			if n != 1 {
				t.Errorf("%s: CPURequest(batch %d, active %d) priced %d times", name, pair[0], pair[1], n)
			}
		}
		for size, n := range e.sizes {
			if n != 1 {
				t.Errorf("%s: GPUQuery(%d) priced %d times", name, size, n)
			}
		}
	}
	for _, cfg := range []Config{{BatchSize: 64}, {BatchSize: 256, GPUThreshold: 128}} {
		e := newCounter()
		if qps, _ := MaxQPS(e, cfg, benchOpts(mc.SLAMedium)); qps == 0 {
			t.Fatalf("%+v: no capacity", cfg)
		}
		check(fmt.Sprintf("one search, %+v", cfg), e, cfg.GPUThreshold > 0)
	}
	e := newCounter()
	climb := NewSearch(e, benchOpts(mc.SLAMedium), 256)
	defer climb.Release()
	for _, cfg := range []Config{{BatchSize: 64}, {BatchSize: 256, GPUThreshold: 128}, {BatchSize: 64, GPUThreshold: 1}, {BatchSize: 256}, {BatchSize: 64}} {
		if qps, _ := climb.MaxQPS(cfg); qps == 0 {
			t.Fatalf("%+v: no capacity", cfg)
		}
	}
	check("one climb", e, true)
}
