package serving

import (
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
)

// TestSearchRejectsBatchAboveItsTable: a Search's service-time table is sized
// once, for the largest batch its climb declared; a larger one must not index
// past a row.
func TestSearchRejectsBatchAboveItsTable(t *testing.T) {
	s := NewSearch(&fakeEngine{cores: 2, perItem: time.Microsecond}, benchOpts(time.Millisecond), 64)
	defer s.Release()
	if qps, _ := s.MaxQPS(Config{BatchSize: 64}); qps == 0 {
		t.Error("batch 64 on a Search built for 64: no capacity")
	}
	defer func() {
		if recover() == nil {
			t.Error("batch 65 on a Search built for 64 did not panic")
		}
	}()
	s.MaxQPS(Config{BatchSize: 65})
}

// TestWarmSearchAllocatesOnlyItsResult: once a Search has run, a capacity
// search allocates the copy of the kept latency samples its Result returns
// and nothing else — no probe allocates, on the CPU pool or offloading.
func TestWarmSearchAllocatesOnlyItsResult(t *testing.T) {
	if bi, _ := debug.ReadBuildInfo(); bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under the race detector sync.Pool drops pooled servers at random")
	}
	mc, err := model.ByName("DLRM-RMC1")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		gpu *platform.GPU
		cfg Config
	}{
		"cpu": {nil, Config{BatchSize: 64}},
		"gpu": {platform.DefaultGPU(), Config{BatchSize: 256, GPUThreshold: 128}},
	} {
		s := NewSearch(NewPlatformEngine(platform.Skylake(), c.gpu, mc), benchOpts(mc.SLAMedium), c.cfg.BatchSize)
		if qps, res := s.MaxQPS(c.cfg); qps == 0 || c.gpu != nil && res.GPUQueryShare == 0 {
			t.Fatalf("%s: %v q/s, %v of the queries offloaded; the search exercises nothing", name, qps, res.GPUQueryShare)
		}
		if allocs := testing.AllocsPerRun(20, func() { s.MaxQPS(c.cfg) }); allocs > 1 {
			t.Errorf("%s: a warm capacity search allocates %v times, want 1", name, allocs)
		}
		s.Release()
	}
}
