// Command deeprecsys is the front end of the reimplemented system: it
// regenerates the paper's evaluation artifacts (tables and figures) as text
// tables, and its subcommands generate, replay and sweep query streams and
// host the live serving demo.
//
// Usage:
//
//	deeprecsys -list
//	deeprecsys [-full] [-models DLRM-RMC1,DIEN] fig11 fig13 ...
//	deeprecsys -full all
//
//	deeprecsys serve -model NCF -rate 300 -n 2000 -autotune
//	deeprecsys loadgen -rate 200 -n 500 | deeprecsys serve -model NCF -trace - -topn 5
//	deeprecsys serve -model NCF -listen 127.0.0.1:8080 &
//	deeprecsys loadgen -target http://127.0.0.1:8080 -rate 200 -n 2000 -arrivals diurnal:0.5,10s
//
//	deeprecsys loadgen -rate 800 -n 5000 > trace.csv
//	deeprecsys replay -model DLRM-RMC1 -gpu -batch 512 -threshold 256 < trace.csv
//	deeprecsys replay -model DIN -batch 128 -workload fixed:100 -rate 600 -n 5000
//	deeprecsys sweep -model DLRM-RMC1 -sla 100ms
//	deeprecsys sweep -model DLRM-RMC1 -gpu -batch 512 -thresholds 1,128,256,512
//
//	deeprecsys tables gen -model DLRM-RMC1 -dir /data/emb -rows 1000000
//	deeprecsys serve -model DLRM-RMC1 -rows 1000000 -store mmap:/data/emb,cache=lru:50000 -access zipf:1.2
//
//	deeprecsys models
//	deeprecsys serve -replicas 2 -policy shape-spread -tenants "DLRM-RMC1@name=ads,sla=100ms,share=2;WnD@sla=50ms"
//
// By default experiments run at quick fidelity (the runs recorded in
// EXPERIMENTS.md); -full tightens the percentile estimates (slower: the
// headline fig11 sweep tunes three schedulers for eight models at three
// SLA targets).
//
// The subcommands, each with its own flags (see -help on each):
//   - serve starts a live concurrent Service executing real forward passes
//     and reports the online p95 against the model's SLA; with -tenants it
//     hosts several models on one shared pool and reports per-tenant
//     ledgers, and with -listen it serves over HTTP until stopped.
//   - loadgen emits a query trace as CSV (arrival seconds, query size) from
//     the paper's arrival and working-set-size distributions, or with
//     -target drives a remote `serve -listen` open-loop over the wire.
//   - replay runs a recorded trace, or a generated stream, through the
//     serving simulator under an explicit configuration.
//   - sweep measures latency-bounded throughput across a grid of batch
//     sizes or accelerator thresholds: the manual counterpart of
//     DeepRecSched's hill climber.
//   - tables gen materializes a model's embedding tables as mmap-ready
//     files.
//   - models lists the zoo with each model's resource shape for picking
//     co-location pairings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/deeprecinfra/deeprecsys/internal/experiments"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// subcommands is the dispatch table: a first argument naming one runs it
// on the remaining arguments; anything else is an artifact run.
var subcommands = []struct {
	name string
	run  func(args []string)
}{
	{"serve", serveMain},
	{"loadgen", loadgenMain},
	{"replay", replayMain},
	{"sweep", sweepMain},
	{"tables", tablesMain},
	{"models", modelsMain},
}

func main() {
	if len(os.Args) > 1 {
		for _, sub := range subcommands {
			if os.Args[1] == sub.name {
				sub.run(os.Args[2:])
				return
			}
		}
	}
	list := flag.Bool("list", false, "list available artifacts and exit")
	full := flag.Bool("full", false, "run at full (recorded) fidelity instead of quick")
	models := flag.String("models", "", "comma-separated model filter for sweep experiments")
	seed := flag.Int64("seed", 1, "random seed for all stochastic inputs")
	flag.Usage = func() {
		names := make([]string, len(subcommands))
		for i, sub := range subcommands {
			names[i] = sub.name
		}
		fmt.Fprintf(flag.CommandLine.Output(), "usage: deeprecsys [-full] [-list] [-models a,b] <artifact>|all ...\n       deeprecsys %s [flags]\n",
			strings.Join(names, "|"))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opt := experiments.Quick()
	if *full {
		opt = experiments.Full()
	}
	opt.Seed = *seed
	if *models != "" {
		opt.Models = workload.Fields(*models, ",")
	}

	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.IDs()
	}
	for _, id := range args {
		runner, err := experiments.Get(id)
		if err != nil {
			fail(1, err)
		}
		fmt.Println(runner(opt))
	}
}

// fail prints its operands to stderr, as fmt.Println spaces them, and exits
// with code.
func fail(code int, a ...any) {
	fmt.Fprintln(os.Stderr, a...)
	os.Exit(code)
}
