package main

import (
	"context"
	"os"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// queryStream is the one stream source of serve, loadgen and replay: the CSV
// trace at tracePath ("-" = stdin) when one is named, else n queries
// generated from the shared workload spec grammar.
func queryStream(tracePath, dist, arrivals string, rate float64, n int, seed int64) ([]workload.Query, error) {
	if tracePath == "" {
		return workload.GenerateSpec(dist, arrivals, rate, n, seed)
	}
	r := os.Stdin
	if tracePath != "-" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return workload.ReadTrace(r)
}

// drivenQuery is one query of a drive stream: an arrival offset, a size,
// and the tenant it is addressed to.
type drivenQuery struct {
	workload.Query
	tenant string
}

// addressed addresses every query of a stream to one tenant.
func addressed(queries []workload.Query, tenant string) []drivenQuery {
	out := make([]drivenQuery, len(queries))
	for i, q := range queries {
		out[i] = drivenQuery{q, tenant}
	}
	return out
}

// openLoop is the one open-loop drive loop of serve and loadgen -target:
// each query is submitted at its arrival offset divided by speed, from its own
// goroutine, whether or not earlier ones have returned — offered load does
// not slow down because the server is struggling, which is what makes
// overload behavior observable. It stops submitting when ctx ends (the
// callers' SIGINT/SIGTERM), waits for what it submitted, and returns how
// many queries that was, the error of each one that failed before ctx
// ended, and the elapsed wall time.
func openLoop(ctx context.Context, queries []drivenQuery, speed float64, submit func(context.Context, drivenQuery) error) (submitted int, failed []error, elapsed time.Duration) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := time.Now()
drive:
	for _, q := range queries {
		if wait := time.Duration(float64(q.Arrival)/speed) - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break drive
			}
		}
		submitted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := submit(ctx, q); err != nil && ctx.Err() == nil {
				mu.Lock()
				failed = append(failed, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return submitted, failed, time.Since(start)
}
