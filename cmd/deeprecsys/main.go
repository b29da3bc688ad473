// Command deeprecsys regenerates the paper's evaluation artifacts (tables
// and figures) from the reimplemented system and prints them as text
// tables, and hosts the live serving demo.
//
// Usage:
//
//	deeprecsys -list
//	deeprecsys [-full] [-models DLRM-RMC1,DIEN] fig11 fig13 ...
//	deeprecsys -full all
//
//	deeprecsys serve -model NCF -rate 300 -n 2000 -autotune
//	loadgen -rate 200 -n 500 | deeprecsys serve -model NCF -trace - -topn 5
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
// SLA targets). The serve subcommand
// starts a live concurrent Service executing real forward passes and
// reports the online p95 against the model's SLA (see -help on serve);
// with -tenants it hosts several models on one shared pool and reports
// per-tenant ledgers. The models subcommand lists the zoo with each
// model's resource shape for picking co-location pairings.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/deeprecinfra/deeprecsys/internal/experiments"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tables" {
		tablesMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "models" {
		modelsMain(os.Args[2:])
		return
	}
	list := flag.Bool("list", false, "list available artifacts and exit")
	full := flag.Bool("full", false, "run at full (recorded) fidelity instead of quick")
	models := flag.String("models", "", "comma-separated model filter for sweep experiments")
	seed := flag.Int64("seed", 1, "random seed for all stochastic inputs")
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
		fmt.Fprintln(os.Stderr, "usage: deeprecsys [-full] [-list] [-models a,b] <artifact>|all ...")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = experiments.IDs()
	}
	for _, id := range args {
		runner, err := experiments.Get(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(runner(opt))
	}
}
