package serving

import (
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// referenceMaxQPS is the ascending reference search with every probe made
// through the public Evaluate, which regenerates the seeded query stream and
// prices a fresh service-time table each time — the behaviour the shared
// stream and the per-search table must reproduce exactly.
func referenceMaxQPS(e Engine, cfg Config, opts SearchOpts) (float64, Result) {
	return maxQPSAscending(opts, func(qps float64) (Result, bool) { return Evaluate(e, cfg, opts, qps) })
}

// TestMaxQPSSharedStreamMatchesPerProbeRegeneration asserts the tentpole
// invariant of the capacity-search optimization: generating the query
// stream once per search and rescaling it per probe yields exactly the
// result of regenerating the stream at every probe.
func TestMaxQPSSharedStreamMatchesPerProbeRegeneration(t *testing.T) {
	cfg, err := model.ByName("DLRM-RMC1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		engine Engine
		config Config
		sizes  workload.SizeDist
		sla    time.Duration
	}{
		{
			name:   "platform-production",
			engine: NewPlatformEngine(platform.Skylake(), nil, cfg),
			config: Config{BatchSize: 256},
			sizes:  workload.DefaultProduction(),
			sla:    cfg.SLAMedium,
		},
		{
			name:   "platform-gpu-threshold",
			engine: NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), cfg),
			config: Config{BatchSize: 128, GPUThreshold: 256},
			sizes:  workload.DefaultProduction(),
			sla:    cfg.SLAMedium,
		},
		{
			name:   "fake-fixed-sizes",
			engine: &fakeEngine{cores: 4, perItem: 200 * time.Microsecond},
			config: Config{BatchSize: 10},
			sizes:  workload.Fixed{Size: 20},
			sla:    25 * time.Millisecond,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultSearchOpts(tc.sizes, tc.sla)
			opts.Queries = 500
			opts.Warmup = 80
			opts.RelTol = 0.05
			gotQPS, gotRes := MaxQPS(tc.engine, tc.config, opts)
			wantQPS, wantRes := referenceMaxQPS(tc.engine, tc.config, opts)
			if gotQPS != wantQPS {
				t.Fatalf("MaxQPS = %v, per-probe regeneration = %v", gotQPS, wantQPS)
			}
			if gotRes.Latency != wantRes.Latency || gotRes.Measured != wantRes.Measured ||
				gotRes.Duration != wantRes.Duration || gotRes.CPUUtil != wantRes.CPUUtil ||
				gotRes.GPUUtil != wantRes.GPUUtil || gotRes.GPUWorkShare != wantRes.GPUWorkShare {
				t.Errorf("results diverge:\n got %+v\nwant %+v", gotRes, wantRes)
			}
		})
	}
}
