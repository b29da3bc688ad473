// Fleet serving: the live counterpart of `deeprecsys fig13`. A heterogeneous
// fleet of replica services — some GPU-capable, all with node-to-node speed
// jitter — serves concurrent traffic behind a size-aware router that steers
// the heavy tail of big queries to the replicas whose offload threshold
// would send them to the accelerator. The example then exercises live
// membership: a replica is drained and removed while traffic flows, without
// dropping a query, and the fleet reports fleet-wide and per-replica online
// percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

func main() {
	modelName := flag.String("model", "NCF", "zoo model")
	replicas := flag.Int("replicas", 4, "fleet size")
	gpuReplicas := flag.Int("gpu-replicas", 2, "replicas with the accelerator lane")
	jitter := flag.Float64("jitter", 0.05, "per-replica service-time jitter")
	queries := flag.Int("n", 400, "queries to drive")
	flag.Parse()

	sys, err := deeprecsys.NewSystem(*modelName, "skylake", deeprecsys.WithGPU())
	if err != nil {
		log.Fatal(err)
	}
	svc, err := sys.Serve(deeprecsys.ServeOptions{
		Replicas:      *replicas,
		GPUReplicas:   *gpuReplicas,
		RoutingPolicy: "size-aware",
		Jitter:        *jitter,
		BatchSize:     64,
		GPUThreshold:  256,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	st := svc.Stats()
	fmt.Printf("fleet: %d replicas of %s (%d GPU-capable), %s routing, jitter %.2f\n",
		st.Replicas, *modelName, *gpuReplicas, st.RoutingPolicy, *jitter)

	// Drive concurrent traffic with the production-like size mix: mostly
	// small queries, a heavy tail of big ones.
	ctx := context.Background()
	var wg sync.WaitGroup
	drive := func(n int, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(64)
			if rng.Float64() < 0.15 {
				size = 256 + rng.Intn(744) // the heavy tail
			}
			if _, err := svc.Submit(ctx, size, 0); err != nil {
				log.Fatal(err)
			}
		}
	}
	wg.Add(2)
	go drive(*queries/4, 1)
	go drive(*queries/4, 2)

	// Membership change under load: drain replica 0, let its in-flight
	// queries finish, and retire it — then add a fresh GPU replica.
	time.Sleep(100 * time.Millisecond)
	if err := svc.DrainReplica(0); err != nil {
		log.Fatal(err)
	}
	if err := svc.RemoveReplica(0); err != nil {
		log.Fatal(err)
	}
	added, err := svc.AddReplica(true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("membership: drained+removed replica 0 under load, added GPU replica %d\n", added)

	wg.Add(2)
	go drive(*queries/4, 3)
	go drive(*queries-3*(*queries/4), 4)
	wg.Wait()

	final := svc.Stats()
	fmt.Printf("\nserved %d queries (%d offloaded fleet-wide)\n", final.Completed, final.GPUQueries)
	fmt.Printf("fleet-wide online p50 %v  p95 %v\n",
		final.P50.Round(10*time.Microsecond), final.P95.Round(10*time.Microsecond))
	fmt.Printf("\n%3s %6s %4s %9s %8s %12s\n", "id", "speed", "gpu", "served", "gpu-q", "p95")
	for _, r := range final.PerReplica {
		gpuMark := "-"
		if r.HasGPU {
			gpuMark = "yes"
		}
		fmt.Printf("%3d %6.3f %4s %9d %8d %12v\n",
			r.ID, r.Speed, gpuMark, r.Completed, r.GPUQueries, r.P95.Round(10*time.Microsecond))
	}
}
