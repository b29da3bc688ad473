package experiments

import (
	"fmt"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/par"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/sched"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// The offline fleet behind Figs. 7 and 13. Nodes are statistically
// independent once queries are assigned: a Poisson stream split uniformly at
// random over N nodes is N independent Poisson streams, so each node runs
// its own discrete-event simulation at rate/N, with every service time
// stretched by the node's platform.SpeedFactors draw.

// nodeJitter is the node-to-node service-time variation of the simulated
// fleet (silicon/thermal/co-tenancy spread).
const nodeJitter = 0.05

// node is one fleet machine: an engine whose service times are stretched by
// the node's speed factor.
type node struct {
	serving.Engine
	speed float64
	id    int
}

func (n node) CPURequest(batch, active int) time.Duration {
	return time.Duration(float64(n.Engine.CPURequest(batch, active)) * n.speed)
}

func (n node) GPUQuery(size int) time.Duration {
	return time.Duration(float64(n.Engine.GPUQuery(size)) * n.speed)
}

// serveFleet runs opt.FleetNodes nodes around eng (engines are immutable, so
// they share it) under cfg through opt.FleetWindows windows of the diurnal
// traffic and returns each node's measured latencies (seconds), in node
// order. A window serves a Poisson stream at the fleet rate of its midpoint
// split over the nodes; streams are seeded per (node, window), so two
// configurations see identical arrivals — a paired comparison. Nodes fan out
// over opt.Workers and fan in by index, so the result does not depend on the
// worker count.
func (o Options) serveFleet(eng serving.Engine, cfg serving.Config, traffic *workload.DiurnalArrivals) [][]float64 {
	nodes := make([]node, o.FleetNodes)
	for i, s := range platform.SpeedFactors(o.FleetNodes, nodeJitter, o.Seed) {
		nodes[i] = node{Engine: eng, speed: s, id: i}
	}
	cfg.Warmup = o.Warmup / 2
	sizes := workload.DefaultProduction()
	return par.Map(o.Workers, nodes, func(n node) []float64 {
		var lats []float64
		for w := 0; w < o.FleetWindows; w++ {
			t := time.Duration(float64(traffic.Period) * (float64(w) + 0.5) / float64(o.FleetWindows))
			rate := traffic.RateAt(t) / float64(o.FleetNodes)
			seed := o.Seed + int64(n.id)*100003 + int64(w)*1009
			gen := workload.NewGenerator(workload.Poisson{RatePerSec: rate}, sizes, seed)
			lats = append(lats, serving.Run(n, cfg, gen.Take(o.QueriesPerWindow)).LatencySamples...)
		}
		return lats
	})
}

// concat joins per-node latencies into one sample.
func concat(perNode [][]float64) []float64 {
	var all []float64
	for _, l := range perNode {
		all = append(all, l...)
	}
	return all
}

// Fig7Data is one (model, platform) subsampling comparison.
type Fig7Data struct {
	Model    string
	Platform string
	// SubsetQuantileErr is the worst relative error between the fleet-wide
	// and few-node latency quantiles (p50..p95).
	SubsetQuantileErr float64
}

// Fig7 regenerates the paper's Fig. 7: the latency distribution measured on
// a handful of nodes tracks the datacenter-wide distribution (within ~10% in
// the paper) for two models on two server generations.
func Fig7(opt Options) (Report, []Fig7Data) {
	r := Report{
		ID:     "fig7",
		Title:  "Fleet vs few-node latency distributions (subsampling validity)",
		Header: []string{"Model", "Platform", "fleet p95 (ms)", "subset p95 (ms)", "max quantile err"},
	}
	combos := []struct {
		model string
		cpu   *platform.CPU
	}{
		{"DLRM-RMC1", platform.Skylake()},
		{"DLRM-RMC3", platform.Broadwell()},
	}
	// The combo loop stays serial: each serveFleet inside already fans out
	// over its nodes with Options.Workers, and nesting a second pool here
	// would oversubscribe the documented worker bound.
	k := min(max(opt.FleetNodes/10, 2), opt.FleetNodes)
	var data []Fig7Data
	for _, combo := range combos {
		eng, _ := engineFor(combo.model, combo.cpu, nil)
		// Moderate utilization, fixed batch: the study is about
		// distributional similarity, not scheduling.
		perNode := 2500.0
		if combo.model == "DLRM-RMC3" {
			perNode = 700
		}
		traffic := &workload.DiurnalArrivals{
			BaseQPS:   perNode * float64(opt.FleetNodes),
			Amplitude: 0.2,
			Period:    24 * time.Hour,
		}
		lats := opt.serveFleet(eng, serving.Config{BatchSize: 128}, traffic)
		all := stats.NewCDF(concat(lats))
		subset := stats.NewCDF(concat(lats[:k]))
		err := all.MaxQuantileRelError(subset, []float64{0.5, 0.75, 0.9, 0.95})
		d := Fig7Data{Model: combo.model, Platform: combo.cpu.Name, SubsetQuantileErr: err}
		data = append(data, d)
		r.AddRow(combo.model, combo.cpu.Name,
			fmt.Sprintf("%.2f", all.Quantile(0.95)*1000),
			fmt.Sprintf("%.2f", subset.Quantile(0.95)*1000),
			fmt.Sprintf("%.1f%%", err*100))
	}
	r.AddNote("paper: individual machines track the datacenter distribution to within ~9-10%%")
	return r, data
}

// Fig13Data is the production A/B outcome.
type Fig13Data struct {
	StaticBatch  int
	TunedBatch   int
	P95Reduction float64
	P99Reduction float64
}

// Fig13 regenerates the paper's Fig. 13: a fleet A/B of the tuned batch size
// against the fixed production configuration over a day of diurnal traffic.
// The paper measures 1.39x (p95) and 1.31x (p99) tail reductions.
func Fig13(opt Options) (Report, Fig13Data) {
	r := Report{
		ID:     "fig13",
		Title:  "Fleet A/B over diurnal traffic: fixed vs tuned batch (DLRM-RMC1, Skylake)",
		Header: []string{"config", "batch", "p95 (ms)", "p99 (ms)"},
	}
	// Tune on a single representative node, as DeepRecSched would.
	skl := platform.Skylake()
	eng, cfg := engineFor("DLRM-RMC1", skl, nil)
	opts := opt.searchOpts(workload.DefaultProduction(), cfg.SLAMedium)
	staticBatch := skl.StaticBatch(workload.MaxQuerySize)
	tuned := sched.DeepRecSchedCPU(eng, opts)

	// Drive the fleet near the static configuration's capacity — the
	// regime production fleets are provisioned for.
	staticCap, _ := serving.MaxQPS(eng, serving.Config{BatchSize: staticBatch}, opts)
	traffic := &workload.DiurnalArrivals{
		BaseQPS:   0.72 * staticCap * float64(opt.FleetNodes),
		Amplitude: 0.15,
		Period:    24 * time.Hour,
	}
	a := stats.Summarize(concat(opt.serveFleet(eng, serving.Config{BatchSize: staticBatch}, traffic)))
	b := stats.Summarize(concat(opt.serveFleet(eng, serving.Config{BatchSize: tuned.BatchSize}, traffic)))

	d := Fig13Data{
		StaticBatch:  staticBatch,
		TunedBatch:   tuned.BatchSize,
		P95Reduction: a.P95 / b.P95,
		P99Reduction: a.P99 / b.P99,
	}
	r.AddRow("static", fmt.Sprintf("%d", staticBatch),
		fmt.Sprintf("%.2f", a.P95*1000), fmt.Sprintf("%.2f", a.P99*1000))
	r.AddRow("tuned", fmt.Sprintf("%d", tuned.BatchSize),
		fmt.Sprintf("%.2f", b.P95*1000), fmt.Sprintf("%.2f", b.P99*1000))
	r.AddNote("tail reduction: p95 %.2fx, p99 %.2fx (paper: 1.39x / 1.31x)", d.P95Reduction, d.P99Reduction)
	return r, d
}
