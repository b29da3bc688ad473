package experiments

import (
	"fmt"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/par"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/sched"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Fig12aData is one (SLA, distribution) tuning outcome for DLRM-RMC1, plus
// the penalty of applying the lognormal-tuned batch to production traffic.
type Fig12aData struct {
	Level model.SLATarget

	ProdBatch float64
	ProdQPS   float64

	LogNormalBatch float64
	// MistunedQPS is production traffic served with the lognormal-tuned
	// batch size; MistunePenalty = ProdQPS / MistunedQPS (paper: 1.2-1.7x).
	MistunedQPS    float64
	MistunePenalty float64
}

// Fig12a regenerates the paper's Fig. 12(a): the optimal batch size across
// SLA targets and query-size distributions for DLRM-RMC1, and the throughput
// lost by tuning against the canonical lognormal instead of the production
// distribution.
func Fig12a(opt Options) (Report, []Fig12aData) {
	r := Report{
		ID:     "fig12a",
		Title:  "Optimal batch vs SLA target and size distribution (DLRM-RMC1)",
		Header: []string{"SLA", "prod batch", "prod QPS", "lognorm batch", "mistuned QPS", "penalty"},
	}
	e, cfg := engineFor("DLRM-RMC1", platform.Skylake(), nil)

	// Two independent tasks per SLA level: the production-traffic tune, and
	// the lognormal tune followed by its mistuned application to production
	// traffic (which depends on the lognormal batch).
	type task struct {
		level     model.SLATarget
		lognormal bool
	}
	type outcome struct {
		tuned       sched.Decision
		mistunedQPS float64
	}
	var tasks []task
	for _, level := range model.AllSLATargets() {
		tasks = append(tasks, task{level: level, lognormal: false}, task{level: level, lognormal: true})
	}
	outcomes := par.Map(opt.Workers, tasks, func(t task) outcome {
		sla := cfg.SLA(t.level)
		prodOpts := opt.searchOpts(workload.DefaultProduction(), sla)
		if !t.lognormal {
			return outcome{tuned: sched.DeepRecSchedCPU(e, prodOpts)}
		}
		ln := sched.DeepRecSchedCPU(e, opt.searchOpts(workload.DefaultLogNormal(), sla))
		// Apply the lognormal-tuned configuration to production traffic.
		mistunedQPS, _ := serving.MaxQPS(e, serving.Config{BatchSize: ln.BatchSize}, prodOpts)
		return outcome{tuned: ln, mistunedQPS: mistunedQPS}
	})

	var data []Fig12aData
	for i, level := range model.AllSLATargets() {
		prod, ln := outcomes[2*i], outcomes[2*i+1]
		d := Fig12aData{
			Level:          level,
			ProdBatch:      float64(prod.tuned.BatchSize),
			ProdQPS:        prod.tuned.QPS,
			LogNormalBatch: float64(ln.tuned.BatchSize),
			MistunedQPS:    ln.mistunedQPS,
		}
		if d.MistunedQPS > 0 {
			d.MistunePenalty = d.ProdQPS / d.MistunedQPS
		}
		data = append(data, d)
		r.AddRow(cfg.SLA(level).String(),
			fmt.Sprintf("%.0f", d.ProdBatch), fmt.Sprintf("%.0f", d.ProdQPS),
			fmt.Sprintf("%.0f", d.LogNormalBatch), fmt.Sprintf("%.0f", d.MistunedQPS),
			fmt.Sprintf("%.2fx", d.MistunePenalty))
	}
	r.AddNote("paper: lognormal-tuned config degrades production QPS by 1.2x/1.4x/1.7x at low/med/high")
	return r, data
}

// Fig12bData is one model's tuned batch size at the high SLA target.
type Fig12bData struct {
	Model string
	Class model.Bottleneck
	Batch int
	QPS   float64
}

// Fig12b regenerates the paper's Fig. 12(b): the optimal batch size across
// models — compute-intensive models peak at smaller batches than
// memory-intensive ones.
func Fig12b(opt Options) (Report, []Fig12bData) {
	r := Report{
		ID:     "fig12b",
		Title:  "Optimal batch size across models (high SLA target, Skylake)",
		Header: []string{"Model", "Class", "optimal batch", "QPS"},
	}
	models := opt.modelNames([]string{"DLRM-RMC1", "DIN", "DLRM-RMC3", "WnD"})
	data := par.Map(opt.Workers, models, func(name string) Fig12bData {
		e, cfg := engineFor(name, platform.Skylake(), nil)
		opts := opt.searchOpts(workload.DefaultProduction(), cfg.SLA(model.SLAHigh))
		d := sched.DeepRecSchedCPU(e, opts)
		return Fig12bData{Model: name, Class: cfg.Class, Batch: d.BatchSize, QPS: d.QPS}
	})
	for _, fd := range data {
		r.AddRow(fd.Model, fd.Class.String(), fmt.Sprintf("%d", fd.Batch), fmt.Sprintf("%.0f", fd.QPS))
	}
	return r, data
}

// Fig12cData is one (platform, SLA) tuning outcome for DLRM-RMC3.
type Fig12cData struct {
	Platform string
	Level    model.SLATarget
	Batch    int
	QPS      float64
}

// Fig12c regenerates the paper's Fig. 12(c): the optimal batch size on
// Broadwell versus Skylake — Broadwell's inclusive cache hierarchy pushes it
// toward larger batches (fewer active cores) than Skylake.
func Fig12c(opt Options) (Report, []Fig12cData) {
	r := Report{
		ID:     "fig12c",
		Title:  "Optimal batch size across hardware platforms (DLRM-RMC3)",
		Header: []string{"Platform", "SLA", "optimal batch", "QPS"},
	}
	// The paper's Fig. 12(c) sweeps targets up to 175 ms; reuse the SLA
	// levels as labels for the swept absolute targets.
	targets := map[model.SLATarget]time.Duration{
		model.SLALow:    75 * time.Millisecond,
		model.SLAMedium: 125 * time.Millisecond,
		model.SLAHigh:   175 * time.Millisecond,
	}
	type point struct {
		e     *serving.PlatformEngine
		cpu   string
		level model.SLATarget
	}
	var points []point
	for _, cpu := range []*platform.CPU{platform.Broadwell(), platform.Skylake()} {
		e, _ := engineFor("DLRM-RMC3", cpu, nil)
		for _, level := range model.AllSLATargets() {
			points = append(points, point{e: e, cpu: cpu.Name, level: level})
		}
	}
	data := par.Map(opt.Workers, points, func(p point) Fig12cData {
		opts := opt.searchOpts(workload.DefaultProduction(), targets[p.level])
		d := sched.DeepRecSchedCPU(p.e, opts)
		return Fig12cData{Platform: p.cpu, Level: p.level, Batch: d.BatchSize, QPS: d.QPS}
	})
	for _, fd := range data {
		r.AddRow(fd.Platform, targets[fd.Level].String(), fmt.Sprintf("%d", fd.Batch), fmt.Sprintf("%.0f", fd.QPS))
	}
	return r, data
}

// Fig14Data is one tail-latency point of the CPU-vs-GPU frontier for
// DLRM-RMC1.
type Fig14Data struct {
	SLA time.Duration

	CPUQPS float64
	GPUQPS float64

	GPUThreshold int
	GPUWorkShare float64

	CPUQPSPerWatt float64
	GPUQPSPerWatt float64
}

// Fig14 regenerates the paper's Fig. 14: scheduling across CPUs and GPUs
// unlocks lower tail-latency targets and higher QPS (top); the fraction of
// work offloaded falls as the target relaxes; and the QPS/W optimum flips
// from GPU at tight targets to CPU-only at loose ones (bottom).
func Fig14(opt Options) (Report, []Fig14Data) {
	r := Report{
		ID:     "fig14",
		Title:  "CPU vs CPU+GPU frontier across tail-latency targets (DLRM-RMC1)",
		Header: []string{"SLA", "CPU QPS", "GPU QPS", "threshold", "GPU work%", "CPU QPS/W", "GPU QPS/W"},
	}
	skl, gpu := platform.Skylake(), platform.DefaultGPU()
	cpuEng, cfg := engineFor("DLRM-RMC1", skl, nil)
	gpuEng, _ := engineFor("DLRM-RMC1", skl, gpu)
	cpuPower := platform.PowerModel{CPU: skl}
	gpuPower := platform.PowerModel{CPU: skl, GPU: gpu}

	med := cfg.SLAMedium
	targets := []time.Duration{
		med / 10, med * 15 / 100, med * 2 / 10, med * 3 / 10,
		med * 5 / 10, med, med * 3 / 2,
	}
	// One task per (target, scheduler variant): the CPU-only and the
	// accelerated hill climbs are independent searches.
	type task struct {
		sla time.Duration
		gpu bool
	}
	var tasks []task
	for _, sla := range targets {
		tasks = append(tasks, task{sla: sla, gpu: false}, task{sla: sla, gpu: true})
	}
	decisions := par.Map(opt.Workers, tasks, func(t task) sched.Decision {
		opts := opt.searchOpts(workload.DefaultProduction(), t.sla)
		if t.gpu {
			return sched.DeepRecSchedGPU(gpuEng, opts)
		}
		return sched.DeepRecSchedCPU(cpuEng, opts)
	})

	var data []Fig14Data
	for i, sla := range targets {
		dc, dg := decisions[2*i], decisions[2*i+1]
		d := Fig14Data{
			SLA:           sla,
			CPUQPS:        dc.QPS,
			GPUQPS:        dg.QPS,
			GPUThreshold:  dg.GPUThreshold,
			GPUWorkShare:  dg.Result.GPUWorkShare,
			CPUQPSPerWatt: cpuPower.QPSPerWatt(dc.QPS, 0),
			GPUQPSPerWatt: gpuPower.QPSPerWatt(dg.QPS, dg.Result.GPUUtil),
		}
		data = append(data, d)
		r.AddRow(sla.String(),
			fmt.Sprintf("%.0f", d.CPUQPS), fmt.Sprintf("%.0f", d.GPUQPS),
			fmt.Sprintf("%d", d.GPUThreshold), pct(d.GPUWorkShare),
			fmt.Sprintf("%.1f", d.CPUQPSPerWatt), fmt.Sprintf("%.1f", d.GPUQPSPerWatt))
	}
	r.AddNote("paper: GPU unlocks ~1.4x lower achievable tails; GPU work share falls as target relaxes; QPS/W flips to CPU at loose targets")
	return r, data
}
