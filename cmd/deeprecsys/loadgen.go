package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/rpc"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// loadgenMain emits a recommendation query trace as CSV: arrival time
// (seconds), query size (candidate items). It is DeepRecInfra's load
// generator exposed as a tool, useful for driving external serving stacks —
// or `deeprecsys serve -trace` and `deeprecsys replay` — with the paper's
// arrival and working-set-size distributions. -dist takes the
// size-distribution half of the workload spec grammar documented on
// deeprecsys.ParseWorkload; -arrivals takes the arrival process.
//
// With -target it drives a `deeprecsys serve -listen` process (or anything
// speaking the /v1/recommend protocol) open-loop over the wire instead,
// with deadline propagation, retries, optional hedging and optional
// injected network chaos, and reports client-observed latency and the wire
// ledger at the end.
func loadgenMain(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	rate := fs.Float64("rate", 1000, "mean arrival rate in queries/sec")
	n := fs.Int("n", 10000, "number of queries to emit")
	dist := fs.String("dist", "production", "size distribution spec: production, lognormal[:mu,sigma], normal[:mean,stddev], fixed:<n>")
	arrivals := fs.String("arrivals", "poisson", "arrival process: poisson, uniform, diurnal:<amp>,<period>, flash:<mult>,<start>,<ramp>,<hold>,<decay>, or mmpp:<mult>,<meanLow>,<meanHigh>")
	seed := fs.Int64("seed", 1, "random seed")
	target := fs.String("target", "", "drive a remote server at this address (http://host:port) instead of emitting CSV")
	topn := fs.Int("topn", 0, "ranked items to request per query (0 = latency only; needs -target)")
	tenant := fs.String("tenant", "", "address every query to this named tenant (needs -target)")
	deadline := fs.Duration("deadline", 0, "per-query deadline, propagated to the server (0 = none; needs -target)")
	attempts := fs.Int("attempts", 3, "max attempts per query: connect errors and 503s retry with backoff (1 = no retry; needs -target)")
	hedge := fs.Float64("hedge", 0, "hedged requests: fire a second request past this client-observed latency percentile, first answer wins (0 = off; needs -target)")
	netchaos := fs.String("netchaos", "", "inject network faults into the driver's transport: netdelay:<dur>,netdrop:<p>,netreset:<p> (needs -target)")
	speed := fs.Float64("speed", 1, "time-scale factor for -target: 2 replays arrivals twice as fast")
	fs.Parse(args)

	queries, err := queryStream("", *dist, *arrivals, *rate, *n, *seed)
	if err != nil {
		fail(2, err)
	}
	if *target == "" {
		if err := workload.WriteTrace(os.Stdout, queries); err != nil {
			fail(1, err)
		}
		return
	}
	if *speed <= 0 {
		fail(2, "loadgen: -speed must be positive")
	}

	cfg := rpc.ClientConfig{MaxAttempts: *attempts, HedgePercentile: *hedge, Seed: *seed}
	if *netchaos != "" && *netchaos != "none" {
		nc, err := rpc.ParseNetChaos(*netchaos)
		if err != nil {
			fail(2, "loadgen:", err)
		}
		nc.Seed = *seed
		cfg.Transport = nc.Transport(nil)
	}
	client, err := rpc.NewClient(*target, cfg)
	if err != nil {
		fail(2, "loadgen:", err)
	}
	defer client.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := client.Healthz(ctx); err != nil {
		fail(1, fmt.Sprintf("loadgen: %s not healthy: %v", *target, err))
	}
	fmt.Fprintf(os.Stderr, "driving %s: %d queries\n", *target, len(queries))

	var mu sync.Mutex
	var latencies []float64
	submitted, failed, elapsed := openLoop(ctx, addressed(queries, *tenant), *speed, func(ctx context.Context, q drivenQuery) error {
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		t0 := time.Now()
		_, err := client.Recommend(ctx, rpc.RecommendRequest{Candidates: q.Size, TopN: *topn, Tenant: q.tenant})
		if err == nil {
			mu.Lock()
			latencies = append(latencies, time.Since(t0).Seconds())
			mu.Unlock()
		}
		return err
	})

	st := client.Stats()
	sum := stats.Summarize(latencies)
	fmt.Printf("drove %d/%d queries in %v (%.1f QPS achieved)\n",
		len(latencies), submitted, elapsed.Round(time.Millisecond), float64(len(latencies))/elapsed.Seconds())
	if sum.Count > 0 {
		fmt.Printf("client latency: p50 %v  p95 %v  p99 %v\n",
			time.Duration(sum.P50*float64(time.Second)).Round(10*time.Microsecond),
			time.Duration(sum.P95*float64(time.Second)).Round(10*time.Microsecond),
			time.Duration(sum.P99*float64(time.Second)).Round(10*time.Microsecond))
	}
	fmt.Printf("wire: %d attempts for %d requests, %d retries (%d denied by budget), %d hedges (%d won)\n",
		st.Attempts, st.Requests, st.Retries, st.BudgetDenied, st.Hedges, st.HedgeWins)
	if st.ConnectErrors+st.Resets+st.Overloaded+st.DeadlineErrors > 0 {
		fmt.Printf("faults seen: %d connect errors, %d resets, %d overloaded, %d deadline\n",
			st.ConnectErrors, st.Resets, st.Overloaded, st.DeadlineErrors)
	}
	errCounts := make(map[string]int)
	for _, err := range failed {
		code := "other"
		var re *rpc.Error
		if errors.As(err, &re) {
			code = re.Code
		}
		errCounts[code]++
	}
	for code, count := range errCounts {
		fmt.Printf("failed %s: %d\n", code, count)
	}
	if len(latencies) == 0 && submitted > 0 {
		os.Exit(1)
	}
}
