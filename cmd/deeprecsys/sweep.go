package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
	"github.com/deeprecinfra/deeprecsys/internal/par"
)

// sweepMain measures latency-bounded throughput across a grid of serving
// configurations for one model: batch sizes, and optionally accelerator
// query-size thresholds. It is the manual counterpart of DeepRecSched's
// hill climber, useful for inspecting the whole operating surface rather
// than the optimum.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	modelName := fs.String("model", "DLRM-RMC1", "zoo model")
	platformName := fs.String("platform", "skylake", "skylake or broadwell")
	slaFlag := fs.Duration("sla", 0, "p95 target (default: the model's published target)")
	batchesFlag := fs.String("batches", "16,32,64,128,256,512,1024", "batch sizes to sweep")
	withGPU := fs.Bool("gpu", false, "provision the accelerator and sweep thresholds")
	batchFlag := fs.Int("batch", 0, "fixed CPU batch for threshold sweeps (default: tuned)")
	thresholdsFlag := fs.String("thresholds", "1,64,128,256,512,768,1001", "GPU thresholds to sweep")
	queries := fs.Int("queries", 1200, "queries per capacity evaluation")
	workers := fs.Int("workers", 0, "concurrent capacity searches (0 = GOMAXPROCS); output is identical at any setting")
	fs.Parse(args)

	opts := []deeprecsys.Option{deeprecsys.WithSearchFidelity(*queries, 0.03)}
	if *withGPU {
		opts = append(opts, deeprecsys.WithGPU())
	}
	sys, err := deeprecsys.NewSystem(*modelName, *platformName, opts...)
	if err != nil {
		log.Fatal(err)
	}
	sla := *slaFlag
	if sla == 0 {
		sla = sys.SLA()
	}
	fmt.Printf("%s on %s, p95 <= %v\n", sys.Model(), sys.Platform(), sla)

	// Grid points are independent capacity searches; fan out on a bounded
	// worker pool and print fanned-in results in grid order.
	capacityAt := func(batch, threshold int) deeprecsys.Decision {
		d, err := sys.Capacity(batch, threshold, sla)
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	if !*withGPU {
		batches := parseInts(*batchesFlag)
		decisions := par.Map(*workers, batches, func(b int) deeprecsys.Decision {
			return capacityAt(b, 0)
		})
		fmt.Printf("%-10s%12s%12s%10s\n", "batch", "QPS", "p95", "cpu util")
		for i, b := range batches {
			d := decisions[i]
			fmt.Printf("%-10d%12.0f%12v%10.2f\n", b, d.QPS, d.P95.Round(time.Microsecond), d.CPUUtil)
		}
		return
	}

	batch := *batchFlag
	if batch == 0 {
		cpuOnly, err := deeprecsys.NewSystem(*modelName, *platformName,
			deeprecsys.WithSearchFidelity(*queries, 0.03))
		if err != nil {
			log.Fatal(err)
		}
		batch = cpuOnly.Tune(sla).BatchSize
		fmt.Printf("tuned CPU batch: %d\n", batch)
	}
	thresholds := parseInts(*thresholdsFlag)
	decisions := par.Map(*workers, thresholds, func(t int) deeprecsys.Decision {
		return capacityAt(batch, t)
	})
	fmt.Printf("%-12s%12s%12s%12s\n", "threshold", "QPS", "GPU work%", "GPU util")
	for i, t := range thresholds {
		d := decisions[i]
		fmt.Printf("%-12d%12.0f%11.0f%%%12.2f\n", t, d.QPS, d.GPUWorkShare*100, d.GPUUtil)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			log.Fatalf("sweep: bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out
}
