package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof exposes the live path's profiles
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
	"github.com/deeprecinfra/deeprecsys/internal/fleet"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// serveMain runs the live serving demo: it starts a concurrent Service for
// one zoo model and drives it open-loop with a query stream — a recorded
// `deeprecsys loadgen` CSV trace replayed in (scaled) real time, or a stream
// generated from the shared workload spec grammar — reporting the online
// p95 against the model's SLA.
func serveMain(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var opts deeprecsys.ServeOptions
	modelName := fs.String("model", "NCF", "zoo model to serve")
	tenants := fs.String("tenants", "", "multi-tenant serving: semicolon-separated tenant specs \"<model>[@key=val,...];...\" with keys name, sla, share, batch, thresh, admission, deadline, degrade, access, seed, cap, workload, store, rows, lookups ('+' stands for ',' inside values); overrides -model (see `deeprecsys models` for the zoo)")
	fs.IntVar(&opts.Workers, "workers", 0, "CPU worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opts.BatchSize, "batch", 256, "initial per-request batch size")
	fs.IntVar(&opts.IntraOp, "intraop", 1, "split one big-batch request across up to this many goroutines (1 = off)")
	pprofAddr := fs.String("pprof", "", "expose net/http/pprof on this address (e.g. localhost:6060) to profile the live path")
	gpu := fs.Bool("gpu", false, "provision the modeled accelerator offload lane")
	fs.IntVar(&opts.GPUThreshold, "threshold", 0, "initial offload threshold: queries >= this size go whole to the accelerator (0 = no offload; needs -gpu); -policy size-aware steers by each replica's own")
	fs.DurationVar(&opts.SLA, "sla", 0, "p95 target (0 = the model's published SLA)")
	fs.BoolVar(&opts.AutoTune, "autotune", false, "retune the knobs online against the measured p95 (batch size, and offload threshold with -gpu; per replica with -replicas)")
	fs.IntVar(&opts.Replicas, "replicas", 1, "fleet size: shard traffic across this many replica services")
	fs.StringVar(&opts.RoutingPolicy, "policy", "round-robin", "fleet routing policy: "+strings.Join(fleet.PolicyUsages(), ", "))
	fs.Float64Var(&opts.Jitter, "jitter", 0, "per-replica service-time jitter: speed factors drawn from N(1, jitter^2), the offline fleet simulator's node model")
	fs.IntVar(&opts.GPUReplicas, "gpu-replicas", 0, "provision the accelerator on only the first n replicas (0 = all; needs -gpu)")
	fs.StringVar(&opts.Admission, "admission", "none", "admission control: none, reject, queue:<depth>, or shed-oldest[:<depth>]")
	fs.DurationVar(&opts.Deadline, "deadline", 0, "per-query latency budget; expired queries are shed before execution (0 = none)")
	fs.StringVar(&opts.Degrade, "degrade", "none", "graceful-degradation ladder: truncate=<n> and/or fallback=<model> (comma-separated; needs -sla or a model SLA)")
	autoscale := fs.String("autoscale", "", "fleet autoscaling bounds <min>:<max>; the fleet grows on SLA breach and shrinks on headroom")
	fs.StringVar(&opts.Chaos, "chaos", "none", "fault injection: key=value list among every=<dur>, crash=<p>, restart=<dur>, slow=<p>, factor=<f>, spike=<p>, delay=<dur>")
	fs.BoolVar(&opts.Retry, "retry", false, "resubmit a query once when a replica crash aborts it")
	rows := fs.Int("rows", 0, "embedding-table rows per table (0 = the zoo default, 10^4); at-scale geometries pair with -store")
	lookups := fs.Int("lookups", 0, "embedding lookups per table per item (0 = the model's default)")
	store := fs.String("store", "", "embedding-store spec: dense, synth, or mmap:<dir> (files from `deeprecsys tables gen`), each optionally +\",cache=lru:<cap>\" or \",cache=lfu:<cap>\" (\"\" = classic in-memory tables)")
	fs.StringVar(&opts.Access, "access", "", "sparse-index popularity: uniform or zipf[:<s>[,<v>]] hot-row skew (\"\" = uniform)")
	fs.BoolVar(&opts.ShardTables, "shard-tables", false, "shard the embedding-row space across the fleet's replicas (needs -store and -replicas >= 2)")
	listen := fs.String("listen", "", "serve over HTTP on this address (e.g. 127.0.0.1:8080; port 0 picks one) until SIGINT/SIGTERM instead of driving a local workload; shutdown drains gracefully and prints the final report")
	remote := fs.String("remote", "", "comma-separated http://host:port targets of `deeprecsys serve -listen` processes to join as fleet replicas")
	topn := fs.Int("topn", 0, "ranked items to return per query (0 = latency only)")
	tracePath := fs.String("trace", "", "replay a loadgen CSV trace ('-' = stdin)")
	wl := fs.String("workload", "production", "workload spec to generate the drive stream (ignored with -trace)")
	arrivals := fs.String("arrivals", "poisson", "arrival process for -workload: poisson, uniform, diurnal:<amp>,<period>, flash:<mult>,<start>,<ramp>,<hold>,<decay>, or mmpp:<mult>,<meanLow>,<meanHigh>")
	rate := fs.Float64("rate", 50, "offered arrival rate in queries/sec for -workload")
	n := fs.Int("n", 500, "number of queries for -workload")
	speed := fs.Float64("speed", 1, "time-scale factor: 2 replays arrivals twice as fast")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	if *speed <= 0 {
		fail(2, "serve: -speed must be positive")
	}

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "serve: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}

	var err error
	if opts.Tenants, err = deeprecsys.ParseTenants(*tenants); err != nil {
		fail(2, err)
	}
	multi := len(opts.Tenants) > 0
	if multi && *tracePath != "" {
		fail(2, "serve: -trace cannot drive -tenants (each tenant generates its own stream)")
	}
	// What the run drives and reports on: the tenant specs, or — a -model
	// run — the one spec the flags spell, its tenant named after the model.
	specs := opts.Tenants
	if !multi {
		specs = []deeprecsys.TenantSpec{{Model: *modelName, Store: *store}}
	}
	// -listen serves queries arriving over the wire; generating a local
	// drive stream would be wasted work.
	var queries []drivenQuery
	if *listen == "" {
		queries, err = driveStream(*tracePath, specs, *wl, *arrivals, *rate, *n, *seed)
		if err != nil {
			fail(2, err)
		}
	}

	if opts.GPUThreshold > 0 && !*gpu {
		fail(2, "serve: -threshold needs -gpu")
	}
	if opts.GPUReplicas > 0 && !*gpu {
		fail(2, "serve: -gpu-replicas needs -gpu")
	}
	opts.MinReplicas, opts.MaxReplicas, opts.AutoScale, err = parseAutoscale(*autoscale)
	if err != nil {
		fail(2, "serve:", err)
	}
	sysOpts := []deeprecsys.Option{deeprecsys.WithSeed(*seed)}
	if *gpu {
		sysOpts = append(sysOpts, deeprecsys.WithGPU())
	}
	if *rows != 0 || *lookups != 0 {
		sysOpts = append(sysOpts, deeprecsys.WithTableScale(*rows, *lookups))
	}
	if *store != "" {
		sysOpts = append(sysOpts, deeprecsys.WithEmbeddingStore(*store))
	}
	// A multi-tenant service serves the tenants' own models; the system
	// model is a placeholder (Serve skips building it).
	sys, err := deeprecsys.NewSystem(specs[0].Model, "skylake", sysOpts...)
	if err != nil {
		fail(2, err)
	}
	defer sys.Close()
	svc, err := sys.Serve(opts)
	if err != nil {
		fail(2, err)
	}

	// SIGTERM joins SIGINT: a supervisor's stop order gets the same
	// graceful drain as an operator's ^C.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *remote != "" {
		for _, target := range workload.Fields(*remote, ",") {
			if target == "" {
				continue
			}
			id, err := svc.AddRemoteReplica(target)
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: joining %s: %v\n", target, err)
				svc.Close()
				os.Exit(2)
			}
			fmt.Printf("joined remote replica %d at %s\n", id, target)
		}
	}

	if *listen != "" {
		listenMode(ctx, svc, *listen, multi, *modelName)
		return
	}

	// Every start-up line names the kernel backend: a QPS read off serve is
	// otherwise unattributable.
	st, kernels, names := svc.Stats(), tensor.ActiveBackend(), svc.Tenants()
	what, shared, knobs := *modelName, "", fmt.Sprintf(", batch %d, p95 target %v", st.BatchSize, st.SLA)
	if multi {
		// Tenants bring their own knobs and SLAs; the per-tenant report has them.
		what, shared, knobs = fmt.Sprintf("%d tenants (%s)", len(names), strings.Join(names, ", ")), "shared ", ""
	}
	where := ""
	if st.Replicas > 1 {
		where = fmt.Sprintf(" over %d %sreplicas (%s routing)", st.Replicas, shared, st.RoutingPolicy)
	} else if multi {
		where = " on one shared pool"
	}
	fmt.Printf("serving %s live on %v kernels: %d queries%s%s\n", what, kernels, len(queries), where, knobs)

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	progress := make(chan struct{})
	go func() {
		for {
			select {
			case <-ticker.C:
				printProgress(svc.Stats(), *gpu, opts.AutoScale)
			case <-progress:
				return
			}
		}
	}()

	submitted, failed, elapsed := openLoop(ctx, queries, *speed, func(ctx context.Context, q drivenQuery) error {
		_, err := svc.SubmitTo(ctx, q.tenant, q.Size, *topn)
		return err
	})
	close(progress)

	final := svc.Stats()
	if err := svc.Close(); err != nil {
		fail(1, err)
	}
	// The offered-QPS denominator spans the queries actually submitted: an
	// interrupt truncates the drive, and the full stream's span would then
	// misreport the offered rate.
	offered := "n/a"
	if submitted > 1 {
		if span := (queries[submitted-1].Arrival - queries[0].Arrival).Seconds() / *speed; span > 0 {
			offered = fmt.Sprintf("%.1f", float64(submitted-1)/span)
		}
	}
	fmt.Printf("served %d/%d queries in %v (%s QPS offered, %.1f achieved)\n",
		final.Completed, submitted, elapsed.Round(time.Millisecond),
		offered, float64(final.Completed)/elapsed.Seconds())
	fmt.Printf("online latency: p50 %v  p95 %v  (window of last %d)\n",
		final.P50.Round(10*time.Microsecond), final.P95.Round(10*time.Microsecond), final.WindowLen)
	if final.Cancelled > 0 || len(failed) > 0 {
		fmt.Printf("cancelled/failed: %d\n", final.Cancelled+uint64(len(failed)))
	}
	if *gpu {
		fmt.Printf("gpu offload: threshold %d, %d queries (%.0f%% of queries, %.0f%% of work)\n",
			final.GPUThreshold, final.GPUQueries, final.GPUQueryShare*100, final.GPUWorkShare*100)
	}
	if opts.AutoTune {
		fmt.Printf("autotune: batch ended at %d", final.BatchSize)
		if *gpu {
			fmt.Printf(", threshold at %d", final.GPUThreshold)
		}
		fmt.Printf(" after %d retunes\n", final.Retunes)
	}
	printAdmission(final)
	if final.DegradeSteps > 0 || final.Truncated > 0 || final.FallbackServed > 0 {
		fmt.Printf("degrade: %d ladder moves, %d queries truncated, %d served by fallback (level %d at end)\n",
			final.DegradeSteps, final.Truncated, final.FallbackServed, final.DegradeLevel)
	}
	// One embedding-store line per store-backed tenant, from its own spec and
	// snapshot.
	for i, t := range final.Tenants {
		if !t.EmbStore {
			continue
		}
		layout := ""
		if opts.ShardTables {
			layout = fmt.Sprintf(", sharded over %d replicas", final.Replicas)
		}
		fmt.Printf("tenant %s: embedding store %q: %d-row tables%s, %s access: %.1f%% cache hit rate, %d evictions, %.1f MB read from backing store\n",
			t.Tenant, specs[i].Store, t.TableRows, layout, cmp.Or(specs[i].Access, opts.Access, "uniform"),
			t.EmbHitRate*100, t.EmbEvictions, float64(t.EmbBytesRead)/(1<<20))
	}
	if opts.AutoScale {
		fmt.Printf("autoscale: %d scale-ups, %d scale-downs, ended at %d replicas\n",
			final.ScaleUps, final.ScaleDowns, final.Replicas)
	}
	if final.Crashes > 0 || final.Failed > 0 || final.Retried > 0 {
		fmt.Printf("chaos: %d crashes (%d restarted), %d queries aborted, %d retried, %d/%d replicas healthy at end\n",
			final.Crashes, final.Restarts, final.Failed, final.Retried, final.Healthy, final.Replicas)
	}
	if len(final.PerReplica) > 1 {
		fmt.Printf("per-replica (%s routing):\n", final.RoutingPolicy)
		fmt.Printf("  %3s %6s %4s %8s %6s %5s %12s %12s\n",
			"id", "speed", "gpu", "served", "batch", "thr", "p50", "p95")
		for _, r := range final.PerReplica {
			gpuMark := "-"
			if r.HasGPU {
				gpuMark = "yes"
			}
			fmt.Printf("  %3d %6.3f %4s %8d %6d %5d %12v %12v\n",
				r.ID, r.Speed, gpuMark, r.Completed, r.BatchSize, r.GPUThreshold,
				r.P50.Round(10*time.Microsecond), r.P95.Round(10*time.Microsecond))
		}
	}
	if multi {
		fmt.Println("per-tenant:")
		fmt.Printf("  %-12s %-10s %5s %8s %6s %6s %5s %12s %12s %10s  %s\n",
			"tenant", "model", "share", "served", "shed", "batch", "thr", "p50", "p95", "sla", "")
		for _, t := range final.Tenants {
			verdict := "meets SLA"
			if !t.MeetsSLA() {
				verdict = "VIOLATES SLA"
			}
			fmt.Printf("  %-12s %-10s %5.1f %8d %6d %6d %5d %12v %12v %10v  %s\n",
				t.Tenant, t.Model, t.Share, t.Completed, t.Shed+t.ShedDeadline+t.CapShed,
				t.BatchSize, t.GPUThreshold,
				t.P50.Round(10*time.Microsecond), t.P95.Round(10*time.Microsecond),
				t.SLA, verdict)
		}
	} else if final.MeetsSLA() {
		fmt.Printf("meets the %v p95 SLA\n", final.SLA)
	} else {
		fmt.Printf("VIOLATES the %v p95 SLA\n", final.SLA)
	}
}

// listenMode publishes the service on the wire and serves until SIGINT or
// SIGTERM, then drains gracefully — the listener refuses new work while
// in-flight requests finish, the service flushes its queues — and prints
// the final report. This is the long-running server the driven mode is
// not: it exits only on a stop signal, never because a workload ran dry.
func listenMode(ctx context.Context, svc *deeprecsys.Service, addr string, multi bool, modelName string) {
	srv, err := svc.StartHTTP(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		svc.Close()
		os.Exit(2)
	}
	st := svc.Stats()
	what, target := "serving "+modelName, fmt.Sprintf(", p95 target %v", st.SLA)
	if multi {
		what, target = fmt.Sprintf("%d tenants", len(svc.Tenants())), "" // each has its own
	}
	fmt.Printf("listening on http://%s: %s, %d replicas, %v kernels%s (stop with SIGINT/SIGTERM)\n",
		srv.Addr(), what, st.Replicas, tensor.ActiveBackend(), target)

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for serving := true; serving; {
		select {
		case <-ctx.Done():
			serving = false
		case <-ticker.C:
			if s := svc.Stats(); s.Submitted > 0 { // nothing to report until traffic arrives
				printProgress(s, false, false)
			}
		}
	}

	fmt.Println("stop signal: draining (new requests refused, in-flight finishing)")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	final := svc.Stats()
	closeErr := svc.Close()
	wire := srv.Counters()

	fmt.Printf("served %d queries (%d submitted) over the wire\n", final.Completed, final.Submitted)
	if final.WindowLen > 0 {
		fmt.Printf("online latency: p50 %v  p95 %v  (window of last %d)\n",
			final.P50.Round(10*time.Microsecond), final.P95.Round(10*time.Microsecond), final.WindowLen)
	}
	fmt.Printf("wire: %d requests, %d ok, %d overloaded, %d deadline, %d draining, %d down, %d cancelled, %d bad\n",
		wire.Requests, wire.OK, wire.Overloaded, wire.Deadline, wire.Draining, wire.Down, wire.Cancelled, wire.BadRequest)
	printAdmission(final)
	for _, t := range final.Tenants {
		fmt.Printf("tenant %s: %d submitted, %d completed, %d shed, p95 %v (sla %v)\n",
			t.Tenant, t.Submitted, t.Completed, t.Shed+t.ShedDeadline+t.CapShed,
			t.P95.Round(10*time.Microsecond), t.SLA)
	}
	if drainErr != nil {
		fail(1, "serve: drain:", drainErr)
	}
	if closeErr != nil {
		fail(1, "serve:", closeErr)
	}
	fmt.Println("drained cleanly")
}

// printProgress prints a running service's per-second progress line: the
// knobs (the threshold with the accelerator, the fleet size under
// autoscaling), sheds, and the online percentiles.
func printProgress(s deeprecsys.ServiceStats, gpu, autoscale bool) {
	line := fmt.Sprintf("  %6d done  batch %4d", s.Completed, s.BatchSize)
	if gpu {
		line += fmt.Sprintf("  thr %4d", s.GPUThreshold)
	}
	if autoscale {
		line += fmt.Sprintf("  reps %2d", s.Replicas)
	}
	if shed := s.Shed + s.ShedDeadline; shed > 0 {
		line += fmt.Sprintf("  shed %5d", shed)
	}
	fmt.Printf("%s  online p50 %-12v p95 %v\n",
		line, s.P50.Round(10*time.Microsecond), s.P95.Round(10*time.Microsecond))
}

// printAdmission prints the exit report's admission line when anything was
// shed or abandoned.
func printAdmission(final deeprecsys.ServiceStats) {
	if shed := final.Shed + final.ShedDeadline + final.Abandoned; shed > 0 {
		fmt.Printf("admission: %d shed overloaded (%d evicted), %d shed on deadline, %d abandoned at close\n",
			final.Shed, final.Evicted, final.ShedDeadline, final.Abandoned)
	}
}

// driveStream loads or generates the query stream that drives the service.
// A -model run (or a trace) is one spec: the whole rate and count on the
// run's seed. A -tenants run generates one stream per spec — its own
// workload (TenantSpec.Workload or the -workload default) at its
// Share-proportional slice of -rate and -n, on its own seed stream — merged
// by arrival time. Every query is addressed to its spec's tenant by name.
func driveStream(tracePath string, specs []deeprecsys.TenantSpec, defWL, arrivals string, rate float64, n int, seed int64) ([]drivenQuery, error) {
	if len(specs) == 1 {
		qs, err := queryStream(tracePath, cmp.Or(specs[0].Workload, defWL), arrivals, rate, n, seed)
		return addressed(qs, cmp.Or(specs[0].Name, specs[0].Model)), err
	}
	total := 0.0
	for _, sp := range specs {
		total += cmp.Or(sp.Share, 1)
	}
	var out []drivenQuery
	for i, sp := range specs {
		frac := cmp.Or(sp.Share, 1) / total
		ni := int(float64(n)*frac + 0.5)
		if ni < 1 && n > 0 {
			ni = 1 // a share too small for one query of a real run still gets one
		}
		name := cmp.Or(sp.Name, sp.Model)
		qs, err := queryStream("", cmp.Or(sp.Workload, defWL), arrivals, rate*frac, ni, seed+9973*int64(i))
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %s: %w", name, err)
		}
		out = append(out, addressed(qs, name)...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Arrival < out[b].Arrival })
	return out, nil
}

// parseAutoscale parses the -autoscale "<min>:<max>" bounds ("" = off).
func parseAutoscale(spec string) (min, max int, on bool, err error) {
	if spec == "" {
		return 0, 0, false, nil
	}
	lo, hi := workload.Call(spec)
	if len(hi) == 1 {
		err = workload.Args([]string{lo, hi[0]}, workload.Int(&min, 1), workload.Int(&max, 1))
	}
	if len(hi) != 1 || err != nil || max < min {
		return 0, 0, false, fmt.Errorf("bad -autoscale %q (want <min>:<max> with 1 <= min <= max)", spec)
	}
	return min, max, true, nil
}
