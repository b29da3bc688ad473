package deeprecsys_test

import (
	"context"
	"fmt"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

// The README's library snippets live here as compiled, runnable examples:
// godoc renders them, `go test` executes them, and the build breaks if the
// public surface drifts away from what the docs show.

// ExampleSystem_Tune is the quickstart: build a System and run the
// DeepRecSched hill climb against a p95 SLA. The tuned configuration must
// sustain at least the static production baseline's throughput — the
// paper's headline comparison (Fig. 11).
func ExampleSystem_Tune() {
	sys, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake",
		deeprecsys.WithSearchFidelity(400, 0.05)) // reduced fidelity: keep the example fast
	if err != nil {
		fmt.Println(err)
		return
	}
	sla := 100 * time.Millisecond
	tuned := sys.Tune(sla)
	baseline := sys.Baseline(sla)
	fmt.Println(tuned.BatchSize >= 1, tuned.QPS >= baseline.QPS, tuned.P95 <= sla)
	// Output: true true true
}

// ExampleSystem_Serve starts a live concurrent Service, submits one real
// query (100 candidates, top-3 by predicted CTR), and reads the online
// stats. Submit is safe from any number of goroutines; Close drains.
func ExampleSystem_Serve() {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		fmt.Println(err)
		return
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{Workers: 2, BatchSize: 32})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer svc.Close()

	reply, err := svc.Submit(context.Background(), 100, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	st := svc.Stats()
	fmt.Println(len(reply.Recs), reply.Latency > 0, st.Completed, st.P95 > 0, st.SLA)
	// Output: 3 true 1 true 5ms
}

// ExampleSystem_Serve_fleet serves through the fleet tier: two replicas
// behind the least-loaded router, fleet-wide stats, and a membership
// change that never drops in-flight queries.
func ExampleSystem_Serve_fleet() {
	sys, err := deeprecsys.NewSystem("NCF", "skylake")
	if err != nil {
		fmt.Println(err)
		return
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Workers:       1,
		BatchSize:     32,
		Replicas:      2,
		RoutingPolicy: "least-loaded",
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer svc.Close()

	reply, err := svc.Submit(context.Background(), 100, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	id, err := svc.AddReplica(false) // grow the fleet while it serves
	if err != nil {
		fmt.Println(err)
		return
	}
	st := svc.Stats()
	fmt.Println(st.RoutingPolicy, st.Replicas, reply.Replica < 2, id, len(st.PerReplica))
	// Output: least-loaded 3 true 2 3
}

// ExampleParseWorkload builds serving scenarios from the spec grammar
// shared with `deeprecsys loadgen` and `deeprecsys replay`, and installs
// one on a System.
func ExampleParseWorkload() {
	wl, err := deeprecsys.ParseWorkload("fixed:100@uniform")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(wl.Name())

	if _, err := deeprecsys.ParseWorkload("lognormal:4.0,0.9"); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := deeprecsys.NewSystem("DLRM-RMC1", "skylake",
		deeprecsys.WithWorkload(wl)); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("installed")
	// Output:
	// fixed(100)@uniform
	// installed
}
