package sched

import (
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

func TestClimbFindsUnimodalPeak(t *testing.T) {
	// QPS profile peaks at value 16.
	profile := map[int]float64{1: 10, 2: 20, 4: 40, 8: 70, 16: 100, 32: 60, 64: 30, 128: 10}
	evals := 0
	best, n := climb([]int{1, 2, 4, 8, 16, 32, 64, 128}, 1, func(v int) Score {
		evals++
		return Score{Value: v, QPS: point(profile[v])}
	})
	if best.Value != 16 {
		t.Errorf("climb found %d, want 16", best.Value)
	}
	if n != evals {
		t.Errorf("reported %d evaluations, spent %d", n, evals)
	}
	// With patience 1 the climb must stop right after the first decline.
	if evals != 6 {
		t.Errorf("spent %d evaluations, want 6 (1..32)", evals)
	}
}

func TestClimbPatienceSkipsLocalDip(t *testing.T) {
	profile := map[int]float64{1: 10, 2: 30, 4: 25, 8: 50, 16: 20, 32: 10}
	best, _ := climb([]int{1, 2, 4, 8, 16, 32}, 2, func(v int) Score {
		return Score{Value: v, QPS: point(profile[v])}
	})
	if best.Value != 8 {
		t.Errorf("patience-2 climb found %d, want 8 (over the dip at 4)", best.Value)
	}
}

func TestClimbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	climb(nil, 1, func(int) Score { return Score{} })
}

func TestRefineImprovesWhenMidpointBetter(t *testing.T) {
	// True optimum at 24, coarse climb would settle on 16 or 32.
	f := func(v int) float64 { return -float64((v - 24) * (v - 24)) }
	best := Score{Value: 16, QPS: point(f(16))}
	refined, n := refine(best, func(v int) Score { return Score{Value: v, QPS: point(f(v))} })
	if refined.Value != 24 {
		t.Errorf("refine found %d, want 24", refined.Value)
	}
	if n != 2 {
		t.Errorf("refine spent %d evals, want 2", n)
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := powersOfTwo(1000)
	if got[0] != 1 || got[len(got)-1] != 1000 || got[len(got)-2] != 512 {
		t.Errorf("powersOfTwo(1000) = %v", got)
	}
	got = powersOfTwo(64)
	if got[len(got)-1] != 64 || len(got) != 7 {
		t.Errorf("powersOfTwo(64) = %v", got)
	}
}

// schedOpts returns fast search options for scheduler tests.
func schedOpts(sla time.Duration) serving.SearchOpts {
	opts := serving.DefaultSearchOpts(workload.DefaultProduction(), sla)
	opts.Queries = 700
	opts.Warmup = 100
	opts.RelTol = 0.05
	return opts
}

func engineFor(t *testing.T, name string, gpu bool) serving.Engine {
	t.Helper()
	cfg, err := model.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var g *platform.GPU
	if gpu {
		g = platform.DefaultGPU()
	}
	return serving.NewPlatformEngine(platform.Skylake(), g, cfg)
}

func TestStaticBaselineUsesPaperBatch(t *testing.T) {
	e := engineFor(t, "DLRM-RMC1", false)
	d := StaticBaseline(e, schedOpts(100*time.Millisecond))
	if d.BatchSize != 25 {
		t.Errorf("static batch = %d, want 25 (1000/40 cores)", d.BatchSize)
	}
	if d.QPS <= 0 {
		t.Errorf("baseline QPS = %v, want > 0", d.QPS)
	}
	if d.GPUThreshold != 0 {
		t.Error("baseline must not offload")
	}
}

func TestDeepRecSchedCPUBeatsStaticBaseline(t *testing.T) {
	// The paper's headline claim, per model: tuned batching beats the
	// fixed production configuration.
	for _, name := range []string{"DLRM-RMC1", "DLRM-RMC3", "DIEN"} {
		e := engineFor(t, name, false)
		cfg, _ := model.ByName(name)
		opts := schedOpts(cfg.SLAMedium)
		base := StaticBaseline(e, opts)
		tuned := DeepRecSchedCPU(e, opts)
		if tuned.QPS < base.QPS {
			t.Errorf("%s: tuned QPS %.1f below baseline %.1f", name, tuned.QPS, base.QPS)
		}
		if tuned.GPUThreshold != 0 {
			t.Errorf("%s: CPU-only tuner chose threshold %d", name, tuned.GPUThreshold)
		}
	}
}

func TestOptimalBatchOrderingAcrossModels(t *testing.T) {
	// Paper Fig. 9/12b: embedding-dominated models are optimized at larger
	// batch sizes than attention-dominated DIEN.
	find := func(name string) int {
		e := engineFor(t, name, false)
		cfg, _ := model.ByName(name)
		return DeepRecSchedCPU(e, schedOpts(cfg.SLAMedium)).BatchSize
	}
	rmc1 := find("DLRM-RMC1")
	dien := find("DIEN")
	if rmc1 <= dien {
		t.Errorf("RMC1 optimal batch (%d) should exceed DIEN (%d)", rmc1, dien)
	}
	if rmc1 < 256 {
		t.Errorf("RMC1 optimal batch = %d, want >= 256 (embedding-dominated)", rmc1)
	}
}

func TestOptimalBatchGrowsWithRelaxedSLA(t *testing.T) {
	// Paper Fig. 12a: relaxing the tail target shifts the optimum toward
	// batch-level parallelism.
	e := engineFor(t, "DLRM-RMC3", false)
	cfg, _ := model.ByName("DLRM-RMC3")
	tight := DeepRecSchedCPU(e, schedOpts(cfg.SLA(model.SLALow)))
	loose := DeepRecSchedCPU(e, schedOpts(cfg.SLA(model.SLAHigh)))
	if tight.BatchSize > loose.BatchSize {
		t.Errorf("optimal batch shrank from %d to %d as SLA relaxed", tight.BatchSize, loose.BatchSize)
	}
	if loose.QPS < tight.QPS {
		t.Errorf("capacity fell from %.1f to %.1f as SLA relaxed", tight.QPS, loose.QPS)
	}
}

func TestDeepRecSchedGPUBeatsCPUOnly(t *testing.T) {
	// Paper Fig. 11/14: offloading the heavy tail raises throughput.
	e := engineFor(t, "DLRM-RMC1", true)
	cfg, _ := model.ByName("DLRM-RMC1")
	opts := schedOpts(cfg.SLAMedium)
	cpuOnly := DeepRecSchedCPU(e, opts)
	gpu := DeepRecSchedGPU(e, opts)
	if gpu.QPS < cpuOnly.QPS {
		t.Errorf("GPU decision %.1f QPS below CPU-only %.1f", gpu.QPS, cpuOnly.QPS)
	}
	if gpu.GPUThreshold <= 0 {
		t.Errorf("GPU tuner disabled offload (threshold %d) where it should help", gpu.GPUThreshold)
	}
	if gpu.Result.GPUWorkShare <= 0 {
		t.Error("no work reached the accelerator")
	}
}

func TestTuneThresholdPanicsWithoutGPU(t *testing.T) {
	e := engineFor(t, "NCF", false)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	TuneThreshold(e, 32, schedOpts(5*time.Millisecond))
}

func TestDecisionConfigRoundTrip(t *testing.T) {
	d := Decision{BatchSize: 64, GPUThreshold: 300}
	cfg := d.Config()
	if cfg.BatchSize != 64 || cfg.GPUThreshold != 300 {
		t.Errorf("Config() = %+v", cfg)
	}
}
