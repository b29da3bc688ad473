package sched

import (
	"math"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// TestZooDecisionsPinned holds, inside tier-1, the 24 decisions cmd/bench's
// tune-sim workload pins in tuneGolden (cmd/bench/tune.go): the static
// baseline, DeepRecSchedCPU and DeepRecSchedGPU for every zoo model in zoo
// order on Skylake, at the benchmark's search fidelity. The analytical
// engines are deterministic, so a moved decision is a behaviour change in
// sched, serving, sim, platform, workload or stats — and fails here, not
// only in the benchmark. Keep the table equal to tuneGolden.
func TestZooDecisionsPinned(t *testing.T) {
	type decision struct {
		batch, threshold int
		qps              float64
	}
	want := []decision{
		// DLRM-RMC1
		{25, 0, 512}, {512, 0, 864}, {512, 128, 1856},
		// DLRM-RMC2
		{25, 0, 128}, {512, 0, 216}, {512, 128, 528},
		// DLRM-RMC3
		{25, 0, 672}, {512, 0, 1280}, {512, 128, 2432},
		// NCF
		{25, 0, 11264}, {512, 0, 22528}, {512, 256, 26624},
		// WnD
		{25, 0, 800}, {96, 0, 1312}, {96, 192, 2816},
		// MT-WnD
		{25, 0, 84}, {24, 0, 84}, {24, 96, 1088},
		// DIN
		{25, 0, 352}, {64, 0, 416}, {64, 128, 960},
		// DIEN
		{25, 0, 1536}, {128, 0, 1792}, {128, 256, 2496},
	}
	zoo := model.Zoo()
	if len(want) != 3*len(zoo) {
		t.Fatalf("%d pinned decisions for a zoo of %d models", len(want), len(zoo))
	}
	for i, cfg := range zoo {
		cpu := serving.NewPlatformEngine(platform.Skylake(), nil, cfg)
		gpu := serving.NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), cfg)
		opts := serving.DefaultSearchOpts(workload.DefaultProduction(), cfg.SLAMedium)
		opts.Queries, opts.Warmup, opts.RelTol, opts.Seed = 400, 50, 0.05, 1
		for j, d := range []Decision{
			StaticBaseline(cpu, opts),
			DeepRecSchedCPU(cpu, opts),
			DeepRecSchedGPU(gpu, opts),
		} {
			w := want[3*i+j]
			if d.BatchSize != w.batch || d.GPUThreshold != w.threshold || math.Abs(d.QPS-w.qps) > 1e-9*w.qps {
				t.Errorf("%s %s: batch %d threshold %d at %v q/s, pinned %d / %d / %v",
					cfg.Name, []string{"static", "DeepRecSched-CPU", "DeepRecSched-GPU"}[j],
					d.BatchSize, d.GPUThreshold, d.QPS, w.batch, w.threshold, w.qps)
			}
		}
	}
}

// TestZooEvaluationsPinned pins, beside the decisions above, the capacity
// searches each of them took: a climb that visits one operating point more or
// fewer, to the same decision, fails here.
func TestZooEvaluationsPinned(t *testing.T) {
	want := map[string][3]int{
		"DLRM-RMC1": {1, 13, 25}, "DLRM-RMC2": {1, 13, 25}, "DLRM-RMC3": {1, 13, 25}, "NCF": {1, 13, 26},
		"WnD": {1, 12, 25}, "MT-WnD": {1, 9, 20}, "DIN": {1, 11, 23}, "DIEN": {1, 12, 25},
	}
	for _, cfg := range model.Zoo() {
		cpu := serving.NewPlatformEngine(platform.Skylake(), nil, cfg)
		gpu := serving.NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), cfg)
		opts := serving.DefaultSearchOpts(workload.DefaultProduction(), cfg.SLAMedium)
		opts.Queries, opts.Warmup, opts.RelTol, opts.Seed = 400, 50, 0.05, 1
		got := [3]int{StaticBaseline(cpu, opts).Evaluations, DeepRecSchedCPU(cpu, opts).Evaluations, DeepRecSchedGPU(gpu, opts).Evaluations}
		if got != want[cfg.Name] {
			t.Errorf("%s: static, DeepRecSched-CPU and -GPU took %v capacity searches, pinned %v", cfg.Name, got, want[cfg.Name])
		}
	}
}
