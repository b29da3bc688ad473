package fleet

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
)

func TestParseChaosSpecs(t *testing.T) {
	good := map[string]ChaosConfig{
		"crash=0.5":                        {Crash: 0.5},
		"every=500ms,crash=0.2,restart=1s": {Interval: 500 * time.Millisecond, Crash: 0.2, Restart: time.Second},
		"slow=0.3,factor=2.5":              {Slow: 0.3, SlowFactor: 2.5},
		"spike=1,delay=10ms":               {Spike: 1, SpikeDelay: 10 * time.Millisecond},
		" crash=0.1 , slow=0.1 ":           {Crash: 0.1, Slow: 0.1},
	}
	for spec, want := range good {
		got, err := ParseChaos(spec)
		if err != nil {
			t.Errorf("%q rejected: %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("%q parsed to %+v, want %+v", spec, got, want)
		}
	}
	if cfg, err := ParseChaos("none"); err != nil || cfg.enabled() {
		t.Errorf("\"none\" = %+v, %v; want disabled", cfg, err)
	}
	bad := []string{
		"crash",             // no value
		"crash=2",           // probability out of range
		"crash=-0.1",        // probability out of range
		"crash=x",           // not a number
		"every=0s",          // non-positive duration
		"every=xx",          // unparseable duration
		"restart=-1s",       // negative duration
		"factor=0.5",        // slowdown must slow down
		"burn=0.5",          // unknown key
		"every=1s",          // injects nothing
		"factor=2,delay=1s", // injects nothing
	}
	for _, spec := range bad {
		if _, err := ParseChaos(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

func TestStartChaosValidation(t *testing.T) {
	m := testModel(t)
	f := newFleet(t, []live.Config{baseConfig(m, 1), baseConfig(m, 2)}, nil)
	if err := f.StartChaos(ChaosConfig{}); err == nil {
		t.Error("chaos config injecting nothing accepted")
	}
	if err := f.StartChaos(ChaosConfig{Crash: 1.5}); err == nil {
		t.Error("out-of-range crash probability accepted")
	}
	if err := f.StartChaos(ChaosConfig{Crash: 0.1, Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := f.StartChaos(ChaosConfig{Crash: 0.1}); err == nil {
		t.Error("second chaos controller accepted")
	}
}

func TestStartAutoscaleValidation(t *testing.T) {
	m := testModel(t)
	mk := func() (live.Config, error) { return baseConfig(m, 9), nil }
	noSLA := newFleet(t, []live.Config{baseConfig(m, 1)}, nil)
	if err := noSLA.StartAutoscale(AutoscaleConfig{Min: 1, Max: 2, NewConfig: mk}); err == nil {
		t.Error("autoscale without an SLA accepted")
	}

	cfg := baseConfig(m, 1)
	cfg.SLA = time.Second
	f := newFleet(t, []live.Config{cfg}, nil)
	bad := []AutoscaleConfig{
		{Min: 0, Max: 2, NewConfig: mk},
		{Min: 3, Max: 2, NewConfig: mk},
		{Min: 1, Max: 2},
		{Min: 1, Max: 2, NewConfig: mk, Interval: -time.Second},
	}
	for i, ac := range bad {
		if err := f.StartAutoscale(ac); err == nil {
			t.Errorf("bad autoscale config %d accepted", i)
		}
	}
	if err := f.StartAutoscale(AutoscaleConfig{Min: 1, Max: 2, NewConfig: mk, Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := f.StartAutoscale(AutoscaleConfig{Min: 1, Max: 2, NewConfig: mk}); err == nil {
		t.Error("second autoscaler accepted")
	}
}

// waitUntil polls cond until true or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached in %v", what, d)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHealthRoutingDivertsTraffic(t *testing.T) {
	m := testModel(t)
	f := newFleet(t, []live.Config{baseConfig(m, 1), baseConfig(m, 2)}, nil)
	ctx := context.Background()

	f.mu.RLock()
	victim, survivor := f.replicas[0], f.replicas[1]
	f.mu.RUnlock()
	victim.svc.(faulter).Fail()

	for i := 0; i < 10; i++ {
		_, id, err := f.Submit(ctx, live.Query{Candidates: 20})
		if err != nil {
			t.Fatalf("submit %d with one healthy replica: %v", i, err)
		}
		if id != survivor.id {
			t.Fatalf("submit %d routed to failed replica %d", i, id)
		}
	}
	st := f.Stats()
	if st.Healthy != 1 || st.Size != 2 {
		t.Errorf("Healthy = %d, Size = %d; want 1, 2", st.Healthy, st.Size)
	}
	if !st.Replicas[0].Failed || st.Replicas[1].Failed {
		t.Errorf("per-replica failed flags = %v, %v", st.Replicas[0].Failed, st.Replicas[1].Failed)
	}

	survivor.svc.(faulter).Fail()
	if _, _, err := f.Submit(ctx, live.Query{Candidates: 20}); !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("submit with no healthy replica = %v, want ErrNoHealthyReplica", err)
	}
}

func TestRetryOnCrashAccounting(t *testing.T) {
	m := testModel(t)
	cfgA := baseConfig(m, 1)
	cfgA.BatchSize = 8
	cfgB := baseConfig(m, 2)
	cfgB.BatchSize = 8
	// Each of a query's 125 chunks sleeps three times as long as it computed,
	// so the victim's backlog outlasts the poll below however fast the kernels
	// are, and the lanes leave the poll a processor while they sleep.
	cfgA.Scale, cfgB.Scale = 4, 4
	f := newFleet(t, []live.Config{cfgA, cfgB}, nil)
	f.SetRetry(true)
	ctx := context.Background()

	// Launch slow queries across both replicas, then crash one while its
	// queries are in flight: with retry enabled every query still lands.
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = f.Submit(ctx, live.Query{Candidates: 1000})
		}(i)
	}
	f.mu.RLock()
	victim := f.replicas[0]
	f.mu.RUnlock()
	waitUntil(t, 5*time.Second, "victim has in-flight queries", func() bool {
		return victim.outstanding.Load() >= 2
	})
	victim.svc.(faulter).Fail()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d lost despite retry: %v", i, err)
		}
	}
	st := f.Stats()
	if st.FrontSubmitted != n {
		t.Errorf("FrontSubmitted = %d, want %d", st.FrontSubmitted, n)
	}
	if st.Retried == 0 {
		t.Error("no retries recorded despite mid-flight crash")
	}
	if st.Submitted != st.FrontSubmitted+st.Retried {
		t.Errorf("sum(replica Submitted) = %d, want FrontSubmitted %d + Retried %d",
			st.Submitted, st.FrontSubmitted, st.Retried)
	}
	if st.Failed != st.Retried {
		t.Errorf("Failed = %d, want %d (every crash-aborted attempt retried successfully)",
			st.Failed, st.Retried)
	}
	if st.Completed != n {
		t.Errorf("Completed = %d, want %d", st.Completed, n)
	}
}

func TestAutoscaleGrowsAndShrinks(t *testing.T) {
	m := testModel(t)
	mkConfig := func(seed int64) live.Config {
		cfg := baseConfig(m, seed)
		cfg.SLA = 500 * time.Millisecond
		cfg.Admission = live.AdmissionConfig{Policy: live.AdmitReject, Concurrency: 1}
		return cfg
	}
	var grown atomic.Int64
	f := newFleet(t, []live.Config{mkConfig(1)}, nil)
	if err := f.StartAutoscale(AutoscaleConfig{
		Min:      1,
		Max:      3,
		Interval: 20 * time.Millisecond,
		NewConfig: func() (live.Config, error) {
			return mkConfig(100 + grown.Add(1)), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Flood far past one replica's single-slot admission capacity: the
	// shed-counter delta drives the fleet to Max.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Submit(ctx, live.Query{Candidates: 50})
			}
		}()
	}
	waitUntil(t, 20*time.Second, "fleet grown to max", func() bool { return f.Size() == 3 })
	close(stop)
	wg.Wait()

	// Light sequential load shows sustained SLA headroom with no shedding:
	// the fleet shrinks back to Min, losslessly draining each victim.
	deadline := time.Now().Add(20 * time.Second)
	for f.Size() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never shrank: size %d", f.Size())
		}
		if _, _, err := f.Submit(ctx, live.Query{Candidates: 20}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Size hit Min while the second Remove was still draining its victim;
	// its counter lands when the drain completes.
	waitUntil(t, 10*time.Second, "both scale-downs recorded", func() bool {
		return f.Stats().ScaleDowns >= 2
	})
	st := f.Stats()
	if st.ScaleUps < 2 {
		t.Errorf("ScaleUps = %d, want >= 2", st.ScaleUps)
	}
	if st.Shed == 0 {
		t.Error("flood produced no sheds")
	}
}

// TestChaosSoakFlashCrowd is the PR's acceptance soak (run it with -race): a
// flash crowd saturates a 3-replica fleet with admission control, a replica
// is crashed and restarted mid-run through the chaos path, and afterwards the
// books must balance exactly — every query either completed or was shed with
// a typed error, no admitted query was lost, and the admitted-traffic p95
// stayed within 5x the unloaded p95.
func TestChaosSoakFlashCrowd(t *testing.T) {
	m := testModel(t)
	mkConfig := func(seed int64) live.Config {
		cfg := baseConfig(m, seed)
		cfg.SLA = 400 * time.Millisecond
		// One slot per worker, one waiter: the tightest gate, so admitted
		// queries never interleave on the lane and the p95 bound is crisp.
		cfg.Admission = live.AdmissionConfig{Policy: live.AdmitShedOldest, Concurrency: 1, Depth: 1}
		// Chunks sleep three times as long as they compute: the lanes stay
		// occupied between the crowd's 500 µs back-offs however fast the
		// kernels are (a crash always finds a query mid-flight), and latency
		// is mostly sleep, which three lanes on two processors do not fight
		// over.
		cfg.Scale = 4
		return cfg
	}
	f := newFleet(t, []live.Config{mkConfig(1), mkConfig(2), mkConfig(3)}, nil)
	f.SetRetry(true)
	ctx := context.Background()
	querySize := func(g, i int) int { return 10 + (g*13+i*7)%190 }

	// Baseline: unloaded p95 over serial traffic with the soak's size mix.
	// Measured twice — before and after the soak — and the bound uses the
	// worse of the two, so ambient machine load that shifts mid-test (other
	// packages' tests run concurrently) degrades both sides of the ratio.
	const warm = 40
	unloadedP95 := func() float64 {
		unloaded := make([]float64, 0, warm)
		for i := 0; i < warm; i++ {
			r, _, err := f.Submit(ctx, live.Query{Candidates: querySize(0, i)})
			if err != nil {
				t.Fatalf("unloaded submit %d: %v", i, err)
			}
			unloaded = append(unloaded, r.Latency.Seconds())
		}
		sort.Float64s(unloaded)
		return unloaded[int(float64(warm)*0.95)]
	}
	baselineP95 := unloadedP95()

	// Flash crowd: far more closed-loop clients than the fleet has slots,
	// submitting until both crash/restart cycles have been driven through —
	// the fleet is guaranteed under load whenever a crash is injected.
	const clients = 12
	stop := make(chan struct{})
	var (
		wg        sync.WaitGroup
		attempts  atomic.Uint64
		completed atomic.Uint64
		shed      atomic.Uint64
		down      atomic.Uint64
		mu        sync.Mutex
		latencies []float64
	)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				attempts.Add(1)
				r, _, err := f.Submit(ctx, live.Query{Candidates: querySize(g, i)})
				switch {
				case err == nil:
					completed.Add(1)
					mu.Lock()
					latencies = append(latencies, r.Latency.Seconds())
					mu.Unlock()
				case errors.Is(err, live.ErrOverloaded):
					shed.Add(1)
					// Back off briefly after a shed: a hot retry loop would
					// steal CPU from the worker lanes and corrupt the
					// latency comparison, not add meaningful pressure.
					time.Sleep(500 * time.Microsecond)
				case errors.Is(err, live.ErrReplicaDown):
					down.Add(1)
					time.Sleep(500 * time.Microsecond)
				default:
					t.Errorf("client %d query %d: unexpected error %v", g, i, err)
				}
			}
		}(g)
	}

	// Mid-run, kill one replica through the chaos path (crash + scheduled
	// restart) twice, waiting out each restart before the next.
	rng := rand.New(rand.NewSource(7))
	var restarts sync.WaitGroup
	for c := 0; c < 2; c++ {
		waitUntil(t, 30*time.Second, "every replica loaded", func() bool {
			f.mu.RLock()
			defer f.mu.RUnlock()
			for _, r := range f.replicas {
				if r.healthy() && r.outstanding.Load() == 0 {
					return false
				}
			}
			return len(f.replicas) > 0
		})
		f.crashOne(rng, 100*time.Millisecond, &restarts)
		restarts.Wait()
	}
	close(stop)
	wg.Wait()

	total := attempts.Load()
	if got := completed.Load() + shed.Load() + down.Load(); got != total {
		t.Fatalf("outcomes %d != submitted %d: a query vanished", got, total)
	}
	st := f.Stats()
	if st.FrontSubmitted != total+warm {
		t.Errorf("FrontSubmitted = %d, want %d", st.FrontSubmitted, total+warm)
	}
	if st.Submitted != st.FrontSubmitted+st.Retried {
		t.Errorf("sum(replica Submitted) = %d, want FrontSubmitted %d + Retried %d",
			st.Submitted, st.FrontSubmitted, st.Retried)
	}
	// Replica-level conservation: every submitted attempt is accounted for
	// by exactly one terminal counter.
	if !st.Conserved() {
		t.Errorf("counter identity: submitted %d != accounted (%+v)", st.Submitted, st)
	}
	if st.Completed != completed.Load()+warm {
		t.Errorf("Completed = %d, client successes+warmup = %d: an admitted query was lost",
			st.Completed, completed.Load()+warm)
	}
	if st.Shed != shed.Load() {
		t.Errorf("Shed = %d, client ErrOverloaded count = %d (each shed must surface exactly once)",
			st.Shed, shed.Load())
	}
	if st.Failed != st.Retried+down.Load() {
		t.Errorf("Failed = %d, want Retried %d + client ErrReplicaDown %d",
			st.Failed, st.Retried, down.Load())
	}
	if st.Crashes != 2 || st.Restarts != 2 {
		t.Errorf("Crashes = %d, Restarts = %d; want 2, 2", st.Crashes, st.Restarts)
	}
	if st.Healthy != 3 {
		t.Errorf("Healthy = %d after restarts, want 3", st.Healthy)
	}
	if st.Shed == 0 {
		t.Error("flash crowd produced no sheds: the soak did not overload the fleet")
	}
	if st.Retried == 0 {
		t.Error("mid-flight crashes produced no retries")
	}

	// Admission control's point: the queries it admits stay fast even while
	// the offered load is unserveable. Re-measure the unloaded baseline now
	// that the crowd is gone and take the worse of the two readings, so
	// ambient machine load that shifted mid-test degrades both sides of the
	// ratio instead of just the admitted side.
	if afterP95 := unloadedP95(); afterP95 > baselineP95 {
		baselineP95 = afterP95
	}
	sort.Float64s(latencies)
	admittedP95 := latencies[int(float64(len(latencies))*0.95)]
	if admittedP95 > 5*baselineP95 {
		t.Errorf("admitted p95 %.1fms > 5x unloaded p95 %.1fms", admittedP95*1e3, baselineP95*1e3)
	}
}
