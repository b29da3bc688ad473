// Serving over the wire: the HTTP/JSON boundary end to end, in one
// process for demonstration. A Service is published with StartHTTP, a
// RemoteClient drives it through an injected flaky network (added delay,
// connection drops) with retry budgets and hedging, and a second
// fleet-fronted Service adopts the published server as a remote replica —
// routing to it exactly as to a local one. The run ends with a graceful
// drain: the wire refuses new work, in-flight requests finish, and both
// sides report their ledgers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
)

func main() {
	modelName := flag.String("model", "NCF", "zoo model")
	queries := flag.Int("n", 200, "queries to drive over the wire")
	chaos := flag.String("chaos", "netdelay:2ms,netdrop:0.05,netseed:7", "network fault spec (\"none\" = clean wire)")
	flag.Parse()

	sys, err := deeprecsys.NewSystem(*modelName, "skylake")
	if err != nil {
		log.Fatal(err)
	}

	// The "server process": a live service published on the wire.
	backend, err := sys.Serve(deeprecsys.ServeOptions{Workers: 2, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()
	srv, err := backend.StartHTTP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving %s at http://%s\n", *modelName, srv.Addr())

	// A fleet in "another process" adopts the published server as a remote
	// replica: health-checked, retried-on-crash, stats-merged — over the
	// wire. (Adopted while fresh, so the merged ledger below is exactly the
	// traffic this fleet routed.)
	ctx := context.Background()
	front, err := sys.Serve(deeprecsys.ServeOptions{Workers: 1, BatchSize: 16, Replicas: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	id, err := front.AddRemoteReplica("http://" + srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := front.Submit(ctx, 32, 0); err != nil {
			log.Fatal(err)
		}
	}
	// Every Stats reads the remote member's /statsz afresh, so the merged
	// view already holds all 60.
	fst := front.Stats()
	fmt.Printf("fleet: adopted the server as replica %d; front door completed %d/%d\n",
		id, fst.Completed, fst.FrontSubmitted)

	// The "client process": per-request deadlines propagate to the server,
	// connect errors and 503s retry under a budget, and a hedge fires when
	// a request outlasts the observed p95.
	client, err := deeprecsys.NewRemoteClient("http://"+srv.Addr(), deeprecsys.ClientOptions{
		Timeout:         500 * time.Millisecond,
		MaxAttempts:     3,
		HedgePercentile: 95,
		NetChaos:        *chaos,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	var okN, errN int
	var mu sync.Mutex
	sem := make(chan struct{}, 8)
	for i := 0; i < *queries; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, err := client.Recommend(ctx, 64, 3)
			mu.Lock()
			if err != nil {
				errN++
			} else {
				okN++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	cs := client.Stats()
	fmt.Printf("\nclient: %d/%d ok through %q\n", okN, okN+errN, *chaos)
	fmt.Printf("  retries %d (budget-denied %d), hedges %d (wins %d), connect errors %d, resets %d\n",
		cs.Retries, cs.BudgetDenied, cs.Hedges, cs.HedgeWins, cs.ConnectErrors, cs.Resets)

	// Graceful drain: the SIGTERM path. Readiness flips, new requests are
	// refused as draining, in-flight ones finish.
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Fatal(err)
	}
	if err := client.Healthy(ctx); err != nil {
		fmt.Printf("\nafter drain: health probe correctly refused (%v)\n", err)
	}
	c := srv.Counters()
	fmt.Printf("server wire ledger: %d requests, %d ok, %d overloaded, %d deadline, %d draining\n",
		c.Requests, c.OK, c.Overloaded, c.Deadline, c.Draining)
}
