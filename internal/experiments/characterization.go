package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/par"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Table1 regenerates the paper's Table I: the architectural features of the
// eight recommendation models.
func Table1() Report {
	r := Report{
		ID:     "table1",
		Title:  "Architectural features of the recommendation model zoo",
		Header: []string{"Model", "Company", "Domain", "Dense-FC", "Predict-FC", "Tables", "Lookups", "Pooling"},
	}
	for _, cfg := range model.Zoo() {
		dense := "-"
		if len(cfg.DenseFC) > 0 {
			dense = intsDash(cfg.DenseFC)
		} else if cfg.DenseInDim > 0 {
			dense = fmt.Sprintf("passthrough(%d)", cfg.DenseInDim)
		}
		predict := intsDash(cfg.PredictFC)
		if cfg.NumTasks > 1 {
			predict = fmt.Sprintf("%dx(%s)", cfg.NumTasks, predict)
		}
		pooling := cfg.Pool.String()
		switch cfg.SeqPool {
		case model.SeqAttention:
			pooling = "attention+FC"
		case model.SeqAUGRU:
			pooling = "attention+RNN"
		}
		if cfg.UseGMF {
			pooling = "GMF+" + pooling
		}
		lookups := fmt.Sprintf("%d", cfg.LookupsPerTable)
		if cfg.SeqPool != model.SeqNone {
			lookups = fmt.Sprintf("%d (seq %d)", cfg.LookupsPerTable, cfg.SeqLen)
		}
		r.AddRow(cfg.Name, cfg.Company, cfg.Domain, dense, predict,
			fmt.Sprintf("%d", cfg.NumTables), lookups, pooling)
	}
	return r
}

func intsDash(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += "-"
		}
		s += fmt.Sprintf("%d", x)
	}
	return s
}

// Table2 regenerates the paper's Table II: runtime bottleneck class and SLA
// target per model, cross-checked against the measured operator breakdown.
func Table2() Report {
	r := Report{
		ID:     "table2",
		Title:  "Runtime bottlenecks and SLA targets",
		Header: []string{"Model", "Class", "Dominant op (measured, batch 64)", "SLA target"},
	}
	skl := platform.Skylake()
	for _, cfg := range model.Zoo() {
		shares := opShares(cfg, skl)
		i := dominant(shares)
		r.AddRow(cfg.Name, cfg.Class.String(),
			fmt.Sprintf("%s (%.0f%%)", fig3Ops[i], shares[i]*100),
			cfg.SLAMedium.String())
	}
	return r
}

// rooflinePoint places one workload on a platform's roofline (Fig. 1a) with
// the share of its memory traffic that is irregular embedding gathers
// (Fig. 1b).
type rooflinePoint struct {
	name         string
	intensity    float64 // FLOPs per byte of memory traffic
	attainable   float64 // GFLOP/s: the memory roof at intensity, capped at the chip's peak
	computeBound bool
	sparse       float64
}

// roofline places the model zoo, then the paper's CNN/RNN references, on
// cpu's roofline. A zoo model's traffic is its input streaming and
// embedding gathers plus its FC weights read once per batch-64 request. The
// references' byte counts assume batched serving (weights amortized over
// the batch, activations streamed), which gives their commonly reported
// intensities: ~120 FLOP/B for ResNet-50, ~50 for DeepSpeech2.
func roofline(cpu *platform.CPU) []rooflinePoint {
	peak := cpu.PeakCoreGFLOPs * float64(cpu.Cores)
	var points []rooflinePoint
	add := func(name string, flops, bytes, embBytes int64) {
		p := rooflinePoint{name: name, intensity: float64(flops) / float64(bytes), sparse: float64(embBytes) / float64(bytes)}
		if p.attainable = p.intensity * cpu.PeakDRAMGBs; !(p.attainable < peak) {
			p.attainable, p.computeBound = peak, true
		}
		points = append(points, p)
	}
	for _, cfg := range model.Zoo() {
		p := model.BuildProfile(cfg)
		add(cfg.Name, p.TotalFLOPs(), p.TotalBytes()+p.MLPWeightBytes/64, p.EmbBytes)
	}
	add("ResNet50", 4_000_000_000, 33_000_000, 0)
	add("DeepSpeech2", 2_400_000_000, 48_000_000, 0)
	return points
}

// Fig1 regenerates the paper's Fig. 1: the roofline placement of the model
// zoo against CNN/RNN reference workloads (a) and the dense/sparse memory
// traffic split (b).
func Fig1() Report {
	r := Report{
		ID:     "fig1",
		Title:  "Roofline characterization vs CNN/RNN references (Skylake)",
		Header: []string{"Workload", "FLOPs/B", "Attainable GFLOP/s", "Bound", "Sparse-byte %"},
	}
	for _, p := range roofline(platform.Skylake()) {
		bound := "memory"
		if p.computeBound {
			bound = "compute"
		}
		r.AddRow(p.name, fmt.Sprintf("%.1f", p.intensity),
			fmt.Sprintf("%.0f", p.attainable), bound, pct(p.sparse))
	}
	return r
}

// fig3Ops names Fig. 3's operator groups in its column order.
var fig3Ops = []string{"FC", "Embedding", "Attention", "Recurrent", "DenseInput", "Other"}

// opShares returns each operator group's share of one batch-64 request's
// service time on cpu, in fig3Ops order.
func opShares(cfg model.Config, cpu *platform.CPU) []float64 {
	bd := cpu.RequestBreakdown(model.BuildProfile(cfg), 64, 1)
	shares := []float64{float64(bd.MLP), float64(bd.Embedding), float64(bd.Attention),
		float64(bd.GRU), float64(bd.Dense), float64(bd.Overhead)}
	total := float64(bd.Total())
	for i := range shares {
		shares[i] /= total
	}
	return shares
}

// dominant returns the index of the largest share, the first on a tie.
func dominant(shares []float64) int {
	best := 0
	for i, s := range shares {
		if s > shares[best] {
			best = i
		}
	}
	return best
}

// Fig3 regenerates the paper's Fig. 3: the operator execution-time breakdown
// of every model at batch size 64.
func Fig3() Report {
	r := Report{
		ID:     "fig3",
		Title:  "Operator time breakdown at batch 64 (Skylake, single core)",
		Header: append([]string{"Model"}, fig3Ops...),
	}
	skl := platform.Skylake()
	for _, cfg := range model.Zoo() {
		row := []string{cfg.Name}
		for _, s := range opShares(cfg, skl) {
			row = append(row, pct(s))
		}
		r.AddRow(row...)
	}
	return r
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// Fig4 regenerates the paper's Fig. 4: accelerator speedup over a CPU across
// batch sizes, with the crossover batch size annotated per model.
func Fig4() Report {
	r := Report{
		ID:     "fig4",
		Title:  "GPU speedup over CPU vs batch size",
		Header: []string{"Model", "x1", "x16", "x64", "x256", "x1024", "crossover", "transfer% @1024"},
	}
	skl, gpu := platform.Skylake(), platform.DefaultGPU()
	for _, cfg := range model.Zoo() {
		p := model.BuildProfile(cfg)
		row := []string{cfg.Name}
		for _, size := range []int{1, 16, 64, 256, 1024} {
			row = append(row, fmt.Sprintf("%.2f", gpu.Speedup(skl, p, size)))
		}
		row = append(row, fmt.Sprintf("%d", gpu.CrossoverSize(skl, p, 4096)))
		frac := float64(gpu.TransferTime(p, 1024)) / float64(gpu.QueryTime(p, 1024))
		row = append(row, pct(frac))
		r.AddRow(row...)
	}
	return r
}

// Fig5Data holds the structured output of Fig5 for programmatic checks.
type Fig5Data struct {
	Name                    string
	P50, P75, P90, P99, Max int
	TailMassOver600         float64
}

// Fig5 regenerates the paper's Fig. 5: the production query-size
// distribution against lognormal and normal alternatives, with the p75
// small/large boundary and the heavy tail quantified.
func Fig5(opt Options) (Report, []Fig5Data) {
	r := Report{
		ID:     "fig5",
		Title:  "Query working-set size distributions",
		Header: []string{"Distribution", "p50", "p75", "p90", "p99", "max", "P(size>=600)"},
	}
	dists := []workload.SizeDist{
		workload.DefaultProduction(),
		workload.DefaultLogNormal(),
		workload.Normal{Mean: 100, Stddev: 40},
	}
	data := par.Map(opt.Workers, dists, func(d workload.SizeDist) Fig5Data {
		n := opt.DistSamples
		rng := rand.New(rand.NewSource(opt.Seed))
		over := 0
		for i := 0; i < n; i++ {
			if d.Sample(rng) >= 600 {
				over++
			}
		}
		return Fig5Data{
			Name:            d.Name(),
			P50:             workload.Quantile(d, 0.50, n, opt.Seed),
			P75:             workload.Quantile(d, 0.75, n, opt.Seed),
			P90:             workload.Quantile(d, 0.90, n, opt.Seed),
			P99:             workload.Quantile(d, 0.99, n, opt.Seed),
			Max:             workload.Quantile(d, 1.0, n, opt.Seed),
			TailMassOver600: float64(over) / float64(n),
		}
	})
	for _, fd := range data {
		r.AddRow(fd.Name, fmt.Sprintf("%d", fd.P50), fmt.Sprintf("%d", fd.P75),
			fmt.Sprintf("%d", fd.P90), fmt.Sprintf("%d", fd.P99),
			fmt.Sprintf("%d", fd.Max), fmt.Sprintf("%.3f", fd.TailMassOver600))
	}
	return r, data
}

// Fig6Data holds the structured output of Fig6.
type Fig6Data struct {
	Model string
	// SmallCPUShare is the fraction of total CPU execution time spent on
	// queries at or below the p75 size.
	SmallCPUShare float64
	// LargeGPUSpeedup is the accelerator speedup aggregated over the
	// large-query (>p75) population.
	LargeGPUSpeedup float64
}

// Fig6 regenerates the paper's Fig. 6: execution time aggregated over the
// query-size distribution, split at the p75 boundary, for CPU and GPU.
func Fig6(opt Options) (Report, []Fig6Data) {
	r := Report{
		ID:     "fig6",
		Title:  "Aggregated execution time by query-size class (<=p75 vs >p75)",
		Header: []string{"Model", "CPU small%", "CPU large%", "GPU speedup on large", "GPU speedup on small"},
	}
	prod := workload.DefaultProduction()
	p75 := workload.Quantile(prod, 0.75, opt.DistSamples, opt.Seed)
	skl, gpu := platform.Skylake(), platform.DefaultGPU()

	type outcome struct {
		data       Fig6Data
		smallRatio float64 // CPU/GPU speedup on small queries (report-only)
	}
	outcomes := par.Map(opt.Workers, opt.modelNames(model.ZooNames()), func(name string) outcome {
		cfg, err := model.ByName(name)
		if err != nil {
			panic(err)
		}
		p := model.BuildProfile(cfg)
		rng := rand.New(rand.NewSource(opt.Seed))
		var cpuSmall, cpuLarge, gpuSmall, gpuLarge time.Duration
		n := opt.DistSamples / 10
		if n < 2000 {
			n = 2000
		}
		for i := 0; i < n; i++ {
			size := prod.Sample(rng)
			cpu := skl.RequestTime(p, size, 1)
			acc := gpu.QueryTime(p, size)
			if size <= p75 {
				cpuSmall += cpu
				gpuSmall += acc
			} else {
				cpuLarge += cpu
				gpuLarge += acc
			}
		}
		totalCPU := cpuSmall + cpuLarge
		return outcome{
			data: Fig6Data{
				Model:           cfg.Name,
				SmallCPUShare:   float64(cpuSmall) / float64(totalCPU),
				LargeGPUSpeedup: float64(cpuLarge) / float64(gpuLarge),
			},
			smallRatio: float64(cpuSmall) / float64(gpuSmall),
		}
	})
	var data []Fig6Data
	for _, o := range outcomes {
		fd := o.data
		data = append(data, fd)
		r.AddRow(fd.Model, pct(fd.SmallCPUShare), pct(1-fd.SmallCPUShare),
			fmt.Sprintf("%.2fx", fd.LargeGPUSpeedup),
			fmt.Sprintf("%.2fx", o.smallRatio))
	}
	r.AddNote("p75 query size boundary = %d items", p75)
	return r, data
}
