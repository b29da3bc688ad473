// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact end to end at quick fidelity), plus
// micro-benchmarks of the substrates (tensor GEMM, embedding pooling, full
// model forwards, the discrete-event serving simulator, and the capacity
// search). Run with:
//
//	go test -bench=. -benchmem
//
// Artifact benches report headline figures via b.ReportMetric so that
// regression in reproduced results is visible alongside timing.
package deeprecsys_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/experiments"
	"github.com/deeprecinfra/deeprecsys/internal/live"
	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/nn"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// benchOpt is the fidelity used by artifact benchmarks.
func benchOpt() experiments.Options { return experiments.Quick() }

func BenchmarkTable1_ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(); len(r.Rows) != 8 {
			b.Fatal("table1 incomplete")
		}
	}
}

func BenchmarkTable2_SLA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2(); len(r.Rows) != 8 {
			b.Fatal("table2 incomplete")
		}
	}
}

func BenchmarkFig01_Roofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig1(); len(r.Rows) != 10 {
			b.Fatal("fig1 incomplete")
		}
	}
}

func BenchmarkFig03_OpBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig3(); len(r.Rows) != 8 {
			b.Fatal("fig3 incomplete")
		}
	}
}

func BenchmarkFig04_GPUSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig4(); len(r.Rows) != 8 {
			b.Fatal("fig4 incomplete")
		}
	}
}

func BenchmarkFig05_QuerySizes(b *testing.B) {
	var tail float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Fig5(benchOpt())
		tail = data[0].TailMassOver600
	}
	b.ReportMetric(tail, "prod-tail-mass>=600")
}

func BenchmarkFig06_SmallLargeSplit(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Fig6(benchOpt())
		share = data[0].SmallCPUShare
	}
	b.ReportMetric(share, "rmc1-small-cpu-share")
}

func BenchmarkFig07_Subsampling(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Fig7(benchOpt())
		worst = 0
		for _, d := range data {
			if d.SubsetQuantileErr > worst {
				worst = d.SubsetQuantileErr
			}
		}
	}
	b.ReportMetric(worst*100, "subset-quantile-err-%")
}

func BenchmarkFig09_BatchSweep(b *testing.B) {
	opt := benchOpt()
	opt.Models = []string{"DLRM-RMC1", "DIEN"}
	for i := 0; i < b.N; i++ {
		if _, data := experiments.Fig9(opt); len(data) == 0 {
			b.Fatal("fig9 empty")
		}
	}
}

func BenchmarkFig10_ThresholdSweep(b *testing.B) {
	opt := benchOpt()
	opt.Models = []string{"DLRM-RMC1"}
	for i := 0; i < b.N; i++ {
		if _, data := experiments.Fig10(opt); len(data) == 0 {
			b.Fatal("fig10 empty")
		}
	}
}

func BenchmarkFig11_Headline(b *testing.B) {
	opt := benchOpt()
	opt.Models = []string{"DLRM-RMC1", "DLRM-RMC3", "NCF", "DIEN"}
	var cpuGain, gpuGain float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Fig11(opt)
		cpuGain, gpuGain = experiments.GeoMeanGains(data, model.SLAMedium)
	}
	b.ReportMetric(cpuGain, "drs-cpu-geomean-x")
	b.ReportMetric(gpuGain, "drs-gpu-geomean-x")
}

func BenchmarkFig12a_SLASweep(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Fig12a(benchOpt())
		penalty = data[len(data)-1].MistunePenalty
	}
	b.ReportMetric(penalty, "lognormal-mistune-x")
}

func BenchmarkFig12b_ModelSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, data := experiments.Fig12b(benchOpt()); len(data) == 0 {
			b.Fatal("fig12b empty")
		}
	}
}

func BenchmarkFig12c_PlatformSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, data := experiments.Fig12c(benchOpt()); len(data) == 0 {
			b.Fatal("fig12c empty")
		}
	}
}

func BenchmarkFig13_ProductionAB(b *testing.B) {
	var p95x float64
	for i := 0; i < b.N; i++ {
		_, d := experiments.Fig13(benchOpt())
		p95x = d.P95Reduction
	}
	b.ReportMetric(p95x, "p95-reduction-x")
}

func BenchmarkFig14_GPUCrossover(b *testing.B) {
	var unlock float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Fig14(benchOpt())
		if data[0].CPUQPS > 0 {
			unlock = data[0].GPUQPS / data[0].CPUQPS
		}
	}
	b.ReportMetric(unlock, "gpu-tight-target-x")
}

func BenchmarkAblation_CostModelMechanisms(b *testing.B) {
	opt := benchOpt()
	opt.Models = []string{"DLRM-RMC1"}
	var collapsed float64
	for i := 0; i < b.N; i++ {
		_, data := experiments.Ablation(opt)
		for _, d := range data {
			if d.Variant == "no-gather-batching" {
				collapsed = d.GainOverB
			}
		}
	}
	b.ReportMetric(collapsed, "gain-without-gather-batching-x")
}

// ---- substrate micro-benchmarks ----

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandUniform(rng, 256, 256, 1)
	w := tensor.RandUniform(rng, 256, 256, 1)
	const flopsPerOp = 2 * 256 * 256 * 256 // total FLOPs of one 256x256x256 matmul
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, w)
	}
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkEmbeddingBagSum80Lookups(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	bag := nn.NewEmbeddingBag(rng, 10000, 32, nn.PoolSum)
	batch := make([][]int, 64)
	for i := range batch {
		idxs := make([]int, 80)
		for j := range idxs {
			idxs[j] = rng.Intn(10000)
		}
		batch[i] = idxs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bag.Forward(batch)
	}
}

// BenchmarkModelForward measures the steady-state real-execution forward
// pass per zoo model on the per-worker scratch path every serving lane uses
// (allocs/op is the headline: the arena keeps it at ~zero). Three batch
// sizes: 16 (small-query latency floor), 256 (the serving batch knob's
// default, where the cache-blocked kernels earn their keep), and 1024
// (MaxBatchSize, the top of the hill climb's range).
func BenchmarkModelForward(b *testing.B) {
	for _, name := range model.ZooNames() {
		for _, size := range []int{16, 256, 1024} {
			name, size := name, size
			b.Run(fmt.Sprintf("%s/b%d", name, size), func(b *testing.B) {
				cfg, err := model.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				m := model.MustNew(cfg, 1)
				rng := rand.New(rand.NewSource(3))
				in := m.NewInput(rng, size)
				s := model.NewScratch()
				m.ForwardInto(s, in) // warm the arena to its high-water mark
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ForwardInto(s, in)
				}
			})
		}
	}
}

// BenchmarkLiveServiceThroughput drives the live concurrent Service end to
// end — Submit through the CPU-lane worker pool's real forward passes and
// top-N ranking — and reports achieved QPS and the online p95. This is the
// tracked baseline for the real-execution serving path (allocs/op spans
// the whole Submit round trip, dominated by per-query bookkeeping, not the
// forward pass).
func BenchmarkLiveServiceThroughput(b *testing.B) {
	m := model.MustNew(mustZooCfg(b, "DLRM-RMC1"), 1)
	svc, err := live.New(live.Config{Model: m, Workers: 2, BatchSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	const submitters = 4
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	queries := make(chan int, b.N)
	for i := 0; i < b.N; i++ {
		queries <- 64 + 16*(i%5)
	}
	close(queries)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for size := range queries {
				if _, err := svc.Submit(context.Background(), live.Query{Candidates: size, TopN: 10}); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	if st := svc.Stats(); st.WindowLen > 0 {
		b.ReportMetric(st.P95.Seconds()*1e3, "p95-ms")
	}
}

func mustZooCfg(b *testing.B, name string) model.Config {
	b.Helper()
	cfg, err := model.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

func BenchmarkServingSimulation(b *testing.B) {
	cfg, err := model.ByName("DLRM-RMC1")
	if err != nil {
		b.Fatal(err)
	}
	e := serving.NewPlatformEngine(platform.Skylake(), nil, cfg)
	gen := workload.NewGenerator(workload.Poisson{RatePerSec: 800}, workload.DefaultProduction(), 5)
	queries := gen.Take(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serving.Run(e, serving.Config{BatchSize: 256, Warmup: 100}, queries)
	}
}

func BenchmarkServingSimulationGPUOffload(b *testing.B) {
	cfg, err := model.ByName("DLRM-RMC1")
	if err != nil {
		b.Fatal(err)
	}
	e := serving.NewPlatformEngine(platform.Skylake(), platform.DefaultGPU(), cfg)
	gen := workload.NewGenerator(workload.Poisson{RatePerSec: 800}, workload.DefaultProduction(), 5)
	queries := gen.Take(2000)
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := serving.Run(e, serving.Config{BatchSize: 256, GPUThreshold: 128, Warmup: 100}, queries)
		share = res.GPUWorkShare
	}
	b.ReportMetric(share, "gpu-work-share")
}

func BenchmarkCapacitySearch(b *testing.B) {
	cfg, err := model.ByName("DLRM-RMC1")
	if err != nil {
		b.Fatal(err)
	}
	e := serving.NewPlatformEngine(platform.Skylake(), nil, cfg)
	opts := serving.DefaultSearchOpts(workload.DefaultProduction(), cfg.SLAMedium)
	opts.Queries = 700
	opts.Warmup = 100
	opts.RelTol = 0.05
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serving.MaxQPS(e, serving.Config{BatchSize: 256}, opts)
	}
}
