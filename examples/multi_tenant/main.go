// Multi-tenant serving: the paper's observation that production runs a
// *zoo* — at-scale recommendation is many models with different resource
// shapes and SLA targets sharing infrastructure — made live. Two tenants
// bind onto one shared replica pool: DLRM-RMC1, embedding-dominated with a
// loose SLA, and WnD, FC-heavy with a tight one. Each tenant keeps its own
// two-knob controller, latency window, admission gate, and counter ledger;
// the shape-spread placement policy co-locates them so their demand lands
// on different resources. The report shows both tenants meeting their own
// SLAs on the same replicas, with fully independent ledgers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

func main() {
	replicas := flag.Int("replicas", 2, "shared pool size")
	perTenant := flag.Int("n", 150, "queries per tenant")
	flag.Parse()

	sys, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake")
	if err != nil {
		log.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Replicas:      *replicas,
		Workers:       2,
		RoutingPolicy: "shape-spread",
		TuneInterval:  100 * time.Millisecond,
		Tenants: []deeprecsys.TenantSpec{
			{
				Model: "DLRM-RMC1", Name: "ads",
				SLA:   100 * time.Millisecond,
				Share: 2, BatchSize: 64,
			},
			{
				Model: "WnD", Name: "ranking",
				SLA:   50 * time.Millisecond,
				Share: 1, BatchSize: 16,
				MaxOutstanding: 4 * *replicas,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	fmt.Printf("shared pool: %d replicas, shape-spread placement\n", *replicas)
	fmt.Printf("  ads:     DLRM-RMC1 (embedding-dominated), SLA 100ms, share 2\n")
	fmt.Printf("  ranking: WnD (FC-heavy), SLA 50ms, share 1, outstanding cap %d\n\n", 4**replicas)

	// Each tenant drives its own open-loop stream against the shared pool
	// with its own query-size profile: ads ranks large candidate slates,
	// ranking re-ranks short ones under its much tighter SLA.
	sizes := map[string]func(*rand.Rand) int{
		"ads":     func(rng *rand.Rand) int { return 50 + rng.Intn(250) },
		"ranking": func(rng *rand.Rand) int { return 4 + rng.Intn(28) },
	}
	var wg sync.WaitGroup
	for i, tenant := range svc.Tenants() {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + i)))
			for q := 0; q < *perTenant; q++ {
				if _, err := svc.SubmitTo(context.Background(), tenant, sizes[tenant](rng), 0); err != nil &&
					!errors.Is(err, deeprecsys.ErrOverloaded) {
					log.Fatalf("%s: %v", tenant, err)
				}
				time.Sleep(time.Duration(2+rng.Intn(4)) * time.Millisecond)
			}
		}(i, tenant)
	}
	wg.Wait()

	st := svc.Stats()
	fmt.Printf("%-8s %-10s %6s %6s %6s %6s %10s %10s %8s  %s\n",
		"tenant", "model", "share", "done", "shed", "batch", "p50", "p95", "sla", "verdict")
	for _, ts := range st.Tenants {
		verdict := "meets SLA"
		if !ts.MeetsSLA() {
			verdict = "VIOLATES SLA"
		}
		fmt.Printf("%-8s %-10s %6.0f %6d %6d %6d %10v %10v %8v  %s\n",
			ts.Tenant, ts.Model, ts.Share, ts.Completed, ts.Shed+ts.ShedDeadline+ts.CapShed,
			ts.BatchSize,
			ts.P50.Round(time.Microsecond), ts.P95.Round(time.Microsecond), ts.SLA, verdict)
	}
	fmt.Printf("\npool totals: %d served on %d replicas, fleet p95 %v\n",
		st.Completed, st.Replicas, st.P95.Round(time.Microsecond))
	for _, ts := range st.Tenants {
		fmt.Printf("  %s: ledger conserved %v, front door (%d taken in, %d cap-shed) balances it %v\n",
			ts.Tenant, ts.Conserved(), ts.FrontSubmitted, ts.CapShed, ts.Balances(ts.Ledger))
	}
}
