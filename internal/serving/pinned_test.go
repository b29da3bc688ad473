package serving

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// runBits folds every float a Result reports into one FNV-1a hash, bit for
// bit and in order: a run that moves one latency sample by one ulp, or
// completes two queries in the other order, hashes differently.
func runBits(runs []Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range runs {
		put(uint64(len(r.LatencySamples)))
		for _, s := range r.LatencySamples {
			put(math.Float64bits(s))
		}
		put(uint64(r.Duration))
		for _, f := range []float64{r.CPUUtil, r.GPUUtil, r.GPUQueryShare, r.GPUWorkShare, r.OfferedQPS} {
			put(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// TestRunBitsPinned is the "identical simulator bytes" oracle for Run: the
// hashes were captured at the commit before the running set became parallel
// slices and the service-time table moved out of the server, and any change
// to internal/serving, sim, platform, workload or stats that moves a single
// bit of a single run fails here. Each group is 32 runs — batch {1, 25, 256,
// 1024} × threshold {0, 128} × poisson/uniform arrivals at a light and a
// near-saturating rate — of 300 production-sized queries, 30 of them warm-up.
func TestRunBitsPinned(t *testing.T) {
	groups := []struct {
		model  string
		cpu    func() *platform.CPU
		lo, hi float64 // arrival rates, q/s
		want   uint64
	}{
		{"DLRM-RMC1", platform.Skylake, 100, 700, 0x5d1b514ef005e7ff},
		{"DLRM-RMC1", platform.Broadwell, 100, 500, 0x956a6d4344b73e12},
		{"NCF", platform.Skylake, 2000, 18000, 0x1f907e3bee42939c},
		{"NCF", platform.Broadwell, 2000, 12000, 0xaac62319af5be828},
		{"DIN", platform.Skylake, 50, 350, 0x6eb9e6d249c6826a},
		{"DIN", platform.Broadwell, 50, 250, 0xb801e69a4b47e88f},
	}
	for _, g := range groups {
		mc, err := model.ByName(g.model)
		if err != nil {
			t.Fatal(err)
		}
		cpu := g.cpu()
		var runs []Result
		for _, batch := range []int{1, 25, 256, 1024} {
			for _, threshold := range []int{0, 128} {
				var gpu *platform.GPU
				if threshold > 0 {
					gpu = platform.DefaultGPU()
				}
				e := NewPlatformEngine(cpu, gpu, mc)
				for _, stream := range []*workload.PoissonStream{
					workload.NewPoissonStream(workload.DefaultProduction(), 300, 7),
					workload.NewUniformStream(workload.DefaultProduction(), 300, 7),
				} {
					for _, rate := range []float64{g.lo, g.hi} {
						cfg := Config{BatchSize: batch, GPUThreshold: threshold, Warmup: 30}
						runs = append(runs, Run(e, cfg, stream.QueriesAt(rate)))
					}
				}
			}
		}
		if got := runBits(runs); got != g.want {
			t.Errorf("%s on %s: run bits %#x, pinned %#x", g.model, cpu.Name, got, g.want)
		}
	}

	// The flat fake engine: service time independent of the active-core
	// count, a batch-1 overload, an all-GPU run and a mixed one.
	var runs []Result
	stream := workload.NewPoissonStream(workload.DefaultProduction(), 300, 11)
	for _, c := range []struct {
		e    *fakeEngine
		cfg  Config
		rate float64
	}{
		{&fakeEngine{cores: 4, perItem: 200 * time.Microsecond}, Config{BatchSize: 10, Warmup: 30}, 100},
		{&fakeEngine{cores: 4, perItem: 200 * time.Microsecond}, Config{BatchSize: 1, Warmup: 30}, 400},
		{&fakeEngine{cores: 40, overhead: 50 * time.Microsecond, perItem: time.Microsecond}, Config{BatchSize: 64}, 5000},
		{&fakeEngine{cores: 1, perItem: time.Nanosecond}, Config{BatchSize: 1024, Warmup: 299}, 1e6},
		{&fakeEngine{cores: 2, withGPU: true, gpuFixed: time.Millisecond, gpuItem: time.Microsecond, perItem: 100 * time.Microsecond}, Config{BatchSize: 32, GPUThreshold: 1, Warmup: 30}, 300},
		{&fakeEngine{cores: 2, withGPU: true, gpuFixed: time.Millisecond, gpuItem: time.Microsecond, perItem: 100 * time.Microsecond}, Config{BatchSize: 32, GPUThreshold: 200, Warmup: 30}, 80},
		{&fakeEngine{cores: 3}, Config{BatchSize: 7, Warmup: 30}, 1000},
	} {
		runs = append(runs, Run(c.e, c.cfg, stream.QueriesAt(c.rate)))
	}
	if got, want := runBits(runs), uint64(0x6b6c34a29c242ed1); got != want {
		t.Errorf("fake engines: run bits %#x, pinned %#x", got, want)
	}
}
