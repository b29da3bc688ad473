package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
)

// replayMain runs a query trace — the CSV format `deeprecsys loadgen`
// emits, or one captured from a production system, read from stdin —
// through the serving simulator under an explicit configuration and prints
// the latency summary. Together with loadgen it closes the loop: generate
// or capture a trace once, then replay it deterministically against any
// model, platform, batch size and offload threshold. With -workload the
// stream is generated in-process from the shared workload spec format
// instead, without an intermediate file.
func replayMain(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	modelName := fs.String("model", "DLRM-RMC1", "zoo model")
	platformName := fs.String("platform", "skylake", "skylake or broadwell")
	batch := fs.Int("batch", 256, "per-request batch size")
	threshold := fs.Int("threshold", 0, "GPU query-size threshold (0 = CPU only)")
	withGPU := fs.Bool("gpu", false, "provision the accelerator")
	warmup := fs.Int("warmup", 100, "leading queries excluded from statistics")
	wl := fs.String("workload", "", "generate the stream from a workload spec (loadgen -dist grammar) instead of reading a trace from stdin")
	arrivals := fs.String("arrivals", "poisson", "arrival process for -workload: poisson, uniform, diurnal:<amp>,<period>, flash:<mult>,<start>,<ramp>,<hold>,<decay>, or mmpp:<mult>,<meanLow>,<meanHigh>")
	rate := fs.Float64("rate", 1000, "arrival rate in queries/sec for -workload")
	n := fs.Int("n", 5000, "number of queries for -workload")
	seed := fs.Int64("seed", 1, "random seed for -workload")
	fs.Parse(args)

	trace := ""
	if *wl == "" {
		trace = "-"
	}
	queries, err := queryStream(trace, *wl, *arrivals, *rate, *n, *seed)
	if err != nil {
		fail(2, err)
	}
	cfg, err := model.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	cpu, err := platform.CPUByName(*platformName)
	if err != nil {
		log.Fatal("replay: ", err)
	}
	var gpu *platform.GPU
	if *withGPU {
		gpu = platform.DefaultGPU()
	}
	engine := serving.NewPlatformEngine(cpu, gpu, cfg)
	serveCfg := serving.Config{BatchSize: *batch, GPUThreshold: *threshold, Warmup: *warmup}
	if err := serveCfg.Validate(engine); err != nil {
		log.Fatal(err)
	}

	res := serving.Run(engine, serveCfg, queries)
	span := queries[len(queries)-1].Arrival
	fmt.Printf("replayed %d queries (%.1f QPS offered) of %s on %s\n",
		len(queries), res.OfferedQPS, cfg.Name, cpu.Name)
	fmt.Printf("config: batch %d, threshold %d, trace span %v\n", *batch, *threshold, span.Round(time.Millisecond))
	fmt.Printf("latency: p50 %s  p95 %s  p99 %s  max %s\n",
		ms(res.Latency.P50), ms(res.Latency.P95), ms(res.Latency.P99), ms(res.Latency.Max))
	fmt.Printf("cpu util %.2f", res.CPUUtil)
	if *withGPU && *threshold > 0 {
		fmt.Printf("  gpu util %.2f  gpu work share %.0f%%", res.GPUUtil, res.GPUWorkShare*100)
	}
	fmt.Println()
	if sla := cfg.SLAMedium; res.P95() <= sla {
		fmt.Printf("meets the model's %v p95 SLA\n", sla)
	} else {
		fmt.Printf("VIOLATES the model's %v p95 SLA\n", sla)
	}
}

func ms(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(10 * time.Microsecond).String()
}
