// Fleet A/B: reproduce the paper's production deployment study (Fig. 13) in
// simulation. A fleet of DLRM-RMC1 serving nodes with realistic node-to-node
// speed variation serves a day of diurnal traffic twice — once with the
// fixed production batch size, once with the DeepRecSched-tuned one — and
// the example prints the fig13 report with the p95/p99 tail-latency
// reductions (paper: 1.39x / 1.31x across hundreds of machines).
package main

import (
	"flag"
	"fmt"

	"github.com/deeprecinfra/deeprecsys/internal/experiments"
)

func main() {
	nodes := flag.Int("nodes", 24, "fleet size")
	flag.Parse()

	opt := experiments.Quick()
	opt.FleetNodes = *nodes
	r, _ := experiments.Fig13(opt)
	fmt.Print(r.String())
}
