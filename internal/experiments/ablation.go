package experiments

import (
	"fmt"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/par"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/sched"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// AblationData records how removing one cost-model mechanism changes the
// scheduler's behaviour for one model: the tuned batch size and the
// tuned-over-baseline throughput gain.
type AblationData struct {
	Model     string
	Variant   string
	Batch     int
	TunedQPS  float64
	BaseQPS   float64
	GainOverB float64
}

// ablationVariant is one mechanism knock-out applied to a Skylake spec.
type ablationVariant struct {
	name  string
	apply func(*platform.CPU)
}

// ablationVariants returns the knock-outs for the four mechanisms docs/DESIGN.md
// §5 calls out as the basis of the cost model.
func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{name: "full-model", apply: func(*platform.CPU) {}},
		{name: "no-simd-batching", apply: func(c *platform.CPU) {
			// SIMD efficiency independent of batch: floor = 1.
			c.MinSIMDEff = 1
		}},
		{name: "no-gather-batching", apply: func(c *platform.CPU) {
			// Gather efficiency independent of batch.
			c.MinGatherEff = 1
		}},
		{name: "no-bw-sharing", apply: func(c *platform.CPU) {
			// Every core gets its full gather bandwidth regardless of how
			// many are active (infinite chip bandwidth).
			c.ChipBWGBs = 1e6
		}},
		{name: "no-contention", apply: func(c *platform.CPU) {
			c.ContentionAlpha = 0
		}},
		{name: "no-dispatch-cost", apply: func(c *platform.CPU) {
			c.DispatchOverhead = 0
		}},
	}
}

// Ablation measures how each cost-model mechanism shapes the scheduler's
// decision for an embedding-dominated and an MLP-dominated model: knock a
// mechanism out, re-run the batch-size hill climb, and compare the tuned
// batch and gain against the static baseline. This backs docs/DESIGN.md's claim
// that the four mechanisms are the ones driving the paper's results — e.g.
// removing batch-dependent gather efficiency and bandwidth sharing collapses
// the advantage of large batches for DLRM-RMC1.
func Ablation(opt Options) (Report, []AblationData) {
	r := Report{
		ID:     "ablation",
		Title:  "Cost-model mechanism knock-outs vs DeepRecSched-CPU decisions",
		Header: []string{"Model", "Variant", "tuned batch", "tuned QPS", "baseline QPS", "gain"},
	}
	models := opt.modelNames([]string{"DLRM-RMC1", "DLRM-RMC3"})

	type point struct {
		cfg     model.Config
		variant ablationVariant
	}
	var points []point
	for _, name := range models {
		cfg, err := model.ByName(name)
		if err != nil {
			panic(err)
		}
		for _, v := range ablationVariants() {
			points = append(points, point{cfg: cfg, variant: v})
		}
	}
	data := par.Map(opt.Workers, points, func(p point) AblationData {
		// Each point mutates its own private copy of the platform spec.
		cpu := platform.Skylake()
		p.variant.apply(cpu)
		e := serving.NewPlatformEngine(cpu, nil, p.cfg)
		opts := opt.searchOpts(workload.DefaultProduction(), p.cfg.SLAMedium)
		base := sched.StaticBaseline(e, opts)
		tuned := sched.DeepRecSchedCPU(e, opts)
		d := AblationData{
			Model:    p.cfg.Name,
			Variant:  p.variant.name,
			Batch:    tuned.BatchSize,
			TunedQPS: tuned.QPS,
			BaseQPS:  base.QPS,
		}
		if base.QPS > 0 {
			d.GainOverB = tuned.QPS / base.QPS
		}
		return d
	})
	for _, d := range data {
		r.AddRow(d.Model, d.Variant, fmt.Sprintf("%d", d.Batch),
			fmt.Sprintf("%.0f", d.TunedQPS), fmt.Sprintf("%.0f", d.BaseQPS),
			fmt.Sprintf("%.2fx", d.GainOverB))
	}
	r.AddNote("knock-outs change absolute QPS (the hardware got 'better'); the column to read is the tuned batch and the gain over the baseline under the same variant")
	return r, data
}
