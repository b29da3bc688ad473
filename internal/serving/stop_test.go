package serving

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// stopCheck runs queries twice on one service-time table: in full, and
// stopping early at sla as a capacity probe does. A run that stops must be
// one whose full p95 misses sla; one that does not must be the full run, to
// the last latency sample. It reports whether the run stopped.
func stopCheck(t *testing.T, name string, times *serviceTimes, cfg Config, queries []workload.Query, sla time.Duration) bool {
	t.Helper()
	full, _ := run(cfg, queries, times, nil, never)
	full.Latency = stats.Summarize(full.LatencySamples)
	got, finished := run(cfg, queries, times, nil, sla+stopMargin)
	if !finished {
		if full.P95() <= sla {
			t.Fatalf("%s: stopped at SLA %v, but the full run's p95 is %v", name, sla, full.P95())
		}
		return true
	}
	got.Latency = stats.Summarize(got.LatencySamples)
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("%s: the run that may stop at SLA %v differs from the full run:\n got %+v\nwant %+v", name, sla, got.Latency, full.Latency)
	}
	return false
}

// probeRates returns every rate either capacity bracket simulates for the
// configuration s is set to: the ascending probe's, and the powers of two
// below the analytic ceiling, which the descent tries from the top.
func probeRates(s *Search) []float64 {
	var rates []float64
	maxQPSAscending(s.opts, func(qps float64) (Result, bool) {
		rates = append(rates, qps)
		return s.evaluate(qps)
	})
	for r := 2.0; r <= s.opts.MaxQPS && !s.overloaded(r); r *= 2 {
		rates = append(rates, r)
	}
	rates = slices.DeleteFunc(rates, s.overloaded)
	slices.Sort(rates)
	return slices.Compact(rates)
}

// TestProbeStopMatchesFullRun is the early stop's safety oracle. For the
// configurations the zoo's climbs visit — every batch size of the batch climb
// CPU-only, every threshold of the threshold climb at two batch sizes — on
// both CPUs, every rate either bracket simulates is run in full and as a
// probe: a probe that stops is one whose full run misses the SLA, one that
// does not is the full run bit for bit, and the probe decides what Evaluate
// decides, a passing one summarizing to Evaluate's Result.
func TestProbeStopMatchesFullRun(t *testing.T) {
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	thresholds := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1001}
	var probes, stopped int
	for _, mc := range model.Zoo() {
		for _, cpu := range []*platform.CPU{platform.Skylake(), platform.Broadwell()} {
			for _, gpu := range []*platform.GPU{nil, platform.DefaultGPU()} {
				var cfgs []Config
				if gpu == nil {
					for _, b := range batches {
						cfgs = append(cfgs, Config{BatchSize: b})
					}
				} else {
					for _, b := range []int{64, 512} {
						for _, th := range thresholds {
							cfgs = append(cfgs, Config{BatchSize: b, GPUThreshold: th})
						}
					}
				}
				opts := benchOpts(mc.SLAMedium)
				s := NewSearch(NewPlatformEngine(cpu, gpu, mc), opts, 1024)
				for _, cfg := range cfgs {
					s.configure(cfg)
					for _, qps := range probeRates(s) {
						name := fmt.Sprintf("%s/%s/b%d/t%d/%vqps", mc.Name, cpu.Name, cfg.BatchSize, cfg.GPUThreshold, qps)
						probes++
						if stopCheck(t, name, s.times, s.cfg, s.arrivals(qps), opts.SLA) {
							stopped++
						}
						want, ok := s.evaluate(qps)
						if got := s.probe(qps); got != ok {
							t.Fatalf("%s: the probe passes: %t, Evaluate: %t", name, got, ok)
						}
						if ok && !reflect.DeepEqual(s.result(), want) {
							t.Fatalf("%s: a passing probe's Result is not Evaluate's", name)
						}
					}
				}
				s.Release()
			}
		}
	}
	t.Logf("%d probes, %d stopped early", probes, stopped)
	if stopped == 0 {
		t.Error("no probe stopped early: the grid does not exercise the stop")
	}
}

// FuzzProbeStopMatchesFullRun is the oracle's run-level check at a
// fuzzer-chosen operating point and SLA: the SLA is the full run's p95 moved
// by a fuzzer-chosen number of nanoseconds, so the stop's margin is tried at
// its edge.
func FuzzProbeStopMatchesFullRun(f *testing.F) {
	mc, err := model.ByName("DLRM-RMC1")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0), uint16(0), 300.0, int64(1), int32(0))
	f.Add(uint16(24), uint16(128), 1500.0, int64(2), int32(-1000))
	f.Add(uint16(255), uint16(1001), 4000.0, int64(3), int32(-1_000_000))
	f.Fuzz(func(t *testing.T, batch, threshold uint16, rate float64, seed int64, slaShift int32) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			t.Skip()
		}
		cfg := Config{BatchSize: 1 + int(batch)%1536, GPUThreshold: int(threshold) % 1002, Warmup: int(batch) % 8}
		rate = 1 + math.Mod(math.Abs(rate), 5000)
		queries := workload.NewPoissonStream(workload.DefaultProduction(), 60, seed).QueriesAt(rate)
		e := NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), mc)
		sla := max(Run(e, cfg, queries).P95()+time.Duration(slaShift), 0)
		times := newServiceTimes(e, cfg.BatchSize)
		defer times.release()
		stopCheck(t, fmt.Sprintf("%+v at %v q/s, seed %d", cfg, rate, seed), times, cfg, queries, sla)
	})
}
