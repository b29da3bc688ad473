package live

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
)

func TestParseAdmissionSpecs(t *testing.T) {
	good := map[string]AdmissionConfig{
		"":               {},
		"none":           {},
		"reject":         {Policy: AdmitReject},
		"queue:8":        {Policy: AdmitQueue, Depth: 8},
		"shed-oldest":    {Policy: AdmitShedOldest},
		"shed-oldest:16": {Policy: AdmitShedOldest, Depth: 16},
	}
	for spec, want := range good {
		got, err := ParseAdmission(spec)
		if err != nil {
			t.Errorf("%q rejected: %v", spec, err)
			continue
		}
		if got != want {
			t.Errorf("%q parsed to %+v, want %+v", spec, got, want)
		}
	}
	bad := []string{"none:1", "reject:2", "queue", "queue:0", "queue:-1", "queue:x", "shed-oldest:0", "lifo"}
	for _, spec := range bad {
		if _, err := ParseAdmission(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

// --- Gate-level tests: the admission mechanics without a service. ---

func TestAdmissionRejectAtSaturation(t *testing.T) {
	a := newAdmission(AdmissionConfig{Policy: AdmitReject, Concurrency: 2, Depth: 1})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := a.admit(ctx); err != nil {
			t.Fatalf("admit %d under capacity: %v", i, err)
		}
	}
	if _, err := a.admit(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit at saturation = %v, want ErrOverloaded", err)
	}
	a.release()
	if _, err := a.admit(ctx); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestAdmissionQueueTransfersSlot(t *testing.T) {
	a := newAdmission(AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 2})
	ctx := context.Background()
	if _, err := a.admit(ctx); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() {
		_, err := a.admit(ctx)
		admitted <- err
	}()
	waitFor(t, func() bool { return a.queued() == 1 })
	a.release() // transfers the slot to the waiter
	if err := <-admitted; err != nil {
		t.Fatalf("queued admit after release: %v", err)
	}
	// The slot moved, it was not freed: a third arrival still queues.
	done := make(chan struct{})
	go func() {
		a.admit(ctx)
		close(done)
	}()
	waitFor(t, func() bool { return a.queued() == 1 })
	a.release()
	<-done
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a := newAdmission(AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 1})
	ctx := context.Background()
	a.admit(ctx)
	go a.admit(ctx) // parks in the queue
	waitFor(t, func() bool { return a.queued() == 1 })
	if _, err := a.admit(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit with full queue = %v, want ErrOverloaded", err)
	}
	a.shutdown(ErrShutdown)
}

func TestAdmissionShedOldestEvicts(t *testing.T) {
	a := newAdmission(AdmissionConfig{Policy: AdmitShedOldest, Concurrency: 1, Depth: 1})
	ctx := context.Background()
	a.admit(ctx)
	oldest := make(chan error, 1)
	go func() {
		_, err := a.admit(ctx)
		oldest <- err
	}()
	waitFor(t, func() bool { return a.queued() == 1 })
	// The newest arrival displaces the oldest waiter and takes its place.
	newest := make(chan error, 1)
	var evictedN int
	go func() {
		n, err := a.admit(ctx)
		evictedN = n
		newest <- err
	}()
	if err := <-oldest; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("evicted waiter = %v, want ErrOverloaded", err)
	}
	a.release()
	if err := <-newest; err != nil {
		t.Fatalf("displacing arrival: %v", err)
	}
	if evictedN != 1 {
		t.Errorf("evicted count = %d, want 1", evictedN)
	}
}

func TestAdmissionCtxWhileQueued(t *testing.T) {
	a := newAdmission(AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 4})
	a.admit(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.admit(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return a.queued() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
	}
	if a.queued() != 0 {
		t.Errorf("cancelled waiter still queued")
	}
	// The execution slot was untouched by the cancellation.
	a.release()
	if _, err := a.admit(context.Background()); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestAdmissionShutdownFlushesWaiters(t *testing.T) {
	a := newAdmission(AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 4})
	ctx := context.Background()
	a.admit(ctx)
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := a.admit(ctx)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return a.queued() == waiters })
	if n := a.shutdown(ErrShutdown); n != waiters {
		t.Errorf("shutdown flushed %d, want %d", n, waiters)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, ErrShutdown) {
			t.Errorf("flushed waiter = %v, want ErrShutdown", err)
		}
	}
	if _, err := a.admit(ctx); !errors.Is(err, ErrShutdown) {
		t.Errorf("admit after shutdown = %v, want ErrShutdown", err)
	}
}

// waitFor polls cond until true or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- Service-level tests. ---

func TestSubmitShedsExpiredDeadline(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, err := s.Submit(ctx, Query{Candidates: 10}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline Submit = %v, want DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.ShedDeadline != 1 || st.Completed != 0 || st.Cancelled != 0 {
		t.Errorf("stats = %+v, want 1 shed-deadline, nothing executed", st)
	}
}

// TestConfigDeadlineApplies pins Config.Deadline against a saturated
// queue-policy gate: a parked query sheds on expiry instead of waiting
// forever. The deadline bounds the caller's context rather than replacing
// it, so whichever of the two expires first sheds the query. The only
// execution slot is held throughout, so the verdict reads which deadline
// fired, not how fast the kernels run.
func TestConfigDeadlineApplies(t *testing.T) {
	for _, tc := range []struct {
		name             string
		caller, deadline time.Duration // caller 0 = no deadline of its own
	}{
		{"no caller deadline", 0, 30 * time.Millisecond},
		{"config earlier", 10 * time.Second, 30 * time.Millisecond},
		{"caller earlier", 30 * time.Millisecond, 10 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newService(t, oneTenant(t, Config{Workers: 1}, TenantConfig{
				BatchSize: 16,
				Admission: AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 4},
				Deadline:  tc.deadline,
			}))
			if _, err := s.tenants[0].adm.admit(context.Background()); err != nil {
				t.Fatal(err)
			}
			defer s.tenants[0].adm.release()
			ctx := context.Background()
			if tc.caller > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.caller)
				defer cancel()
			}
			start := time.Now()
			_, err := s.Submit(ctx, Query{Candidates: 10})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("queued past deadline = %v, want DeadlineExceeded", err)
			}
			if tc.caller > tc.deadline && ctx.Err() != nil {
				t.Errorf("shed only when the caller's %v expired, not at the service's %v", tc.caller, tc.deadline)
			}
			if tc.caller > 0 && tc.deadline > tc.caller && time.Since(start) >= tc.deadline {
				t.Errorf("shed only at the service's %v, not at the caller's %v", tc.deadline, tc.caller)
			}
			if st := s.Stats(); st.ShedDeadline != 1 {
				t.Errorf("ShedDeadline = %d, want 1", st.ShedDeadline)
			}
		})
	}
}

func TestCloseUnderSaturationAbandonsQueued(t *testing.T) {
	s := newService(t, oneTenant(t, Config{Workers: 1}, TenantConfig{
		BatchSize: MaxBatchSize,
		Admission: AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 8},
	}))
	// The injected delay holds the admission slot open past the forward
	// pass (release defers until Submit returns), so the holder query is
	// deterministically slow regardless of how fast the kernel backend
	// finishes the actual compute.
	if err := s.SetDelay(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// One slow query holds the execution slot; several more park behind it.
	var wg sync.WaitGroup
	holderErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Submit(context.Background(), Query{Candidates: 1000})
		holderErr <- err
	}()
	waitFor(t, func() bool {
		s.tenants[0].adm.mu.Lock()
		busy := s.tenants[0].adm.inExec > 0
		s.tenants[0].adm.mu.Unlock()
		return busy
	})
	const queued = 4
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), Query{Candidates: 10})
			errs <- err
		}()
	}
	waitFor(t, func() bool { return s.tenants[0].adm.queued() == queued })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < queued; i++ {
		if err := <-errs; !errors.Is(err, ErrShutdown) {
			t.Errorf("queued query at close = %v, want ErrShutdown", err)
		}
	}
	if err := <-holderErr; err != nil {
		t.Errorf("in-flight query at close = %v, want completion", err)
	}
	st := s.Stats()
	if st.Abandoned != queued || st.Completed != 1 {
		t.Errorf("stats = %+v, want %d abandoned / 1 completed", st, queued)
	}
	if got := st.Completed + st.Abandoned; st.Submitted != got {
		t.Errorf("counter identity: submitted %d != completed+abandoned %d", st.Submitted, got)
	}
}

// TestDegradeLadderManual stores each rung into the tenant's level, as the
// degrader does, so every rung's effect is checked without waiting on the
// controller.
func TestDegradeLadderManual(t *testing.T) {
	fb := func() *model.Model {
		cfg, err := model.ByName("NCF")
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.New(cfg, 99)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}()
	// The ladder needs an SLA; the hour-long tick keeps its controller from
	// moving the level this test sets by hand.
	s := newService(t, oneTenant(t, Config{Workers: 1, TuneInterval: time.Hour}, TenantConfig{
		BatchSize: 16,
		SLA:       time.Hour,
		Degrade:   DegradeConfig{Truncate: 8, Fallback: fb},
	}))
	if got := len(s.tenants[0].degLadder); got != 3 {
		t.Fatalf("ladder has %d rungs, want 3", got)
	}
	ctx := context.Background()

	// Level 1: truncation only.
	s.tenants[0].degLevel.Store(1)
	r, err := s.Submit(ctx, Query{Candidates: 100, TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Degraded {
		t.Error("truncation rung must not mark the reply degraded")
	}
	st := s.Stats()
	if st.Truncated != 1 || st.FallbackServed != 0 {
		t.Errorf("level 1 counters = %+v", st)
	}
	if st.WorkItems != 8 {
		t.Errorf("truncated query admitted %d items of work, want 8", st.WorkItems)
	}

	// Level 2: fallback model (plus truncation).
	s.tenants[0].degLevel.Store(2)
	r, err = s.Submit(ctx, Query{Candidates: 100, TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Error("fallback rung must mark the reply degraded")
	}
	if len(r.Recs) != 3 {
		t.Errorf("degraded reply has %d recs, want 3", len(r.Recs))
	}
	st = s.Stats()
	if st.Truncated != 2 || st.FallbackServed != 1 {
		t.Errorf("level 2 counters = %+v", st)
	}

	// A small query is untouched by truncation.
	s.tenants[0].degLevel.Store(1)
	if _, err := s.Submit(ctx, Query{Candidates: 5}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Truncated != 2 {
		t.Errorf("small query truncated: %+v", st)
	}
}

func TestDegradedQueriesStayOnCPULane(t *testing.T) {
	fb := testModel(t)
	s := newService(t, oneTenant(t, Config{Workers: 1, GPU: testGPU(2), TuneInterval: time.Hour}, TenantConfig{
		BatchSize:    16,
		GPUThreshold: 1, // everything would offload at full service
		SLA:          time.Hour,
		Degrade:      DegradeConfig{Fallback: fb},
	}))
	s.tenants[0].degLevel.Store(1)
	r, err := s.Submit(context.Background(), Query{Candidates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if r.Offloaded || !r.Degraded {
		t.Errorf("fallback query: offloaded=%v degraded=%v, want CPU-lane degraded", r.Offloaded, r.Degraded)
	}
	if st := s.Stats(); st.GPUQueries != 0 {
		t.Errorf("fallback query counted as offloaded: %+v", st)
	}
}

func TestDegraderWalksLadder(t *testing.T) {
	// Step up: an absurdly tight SLA makes every sample a breach.
	s := newService(t, oneTenant(t, Config{Workers: 1, TuneInterval: 10 * time.Millisecond}, TenantConfig{
		BatchSize: 16,
		SLA:       time.Nanosecond,
		Degrade:   DegradeConfig{Truncate: 8},
	}))
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().DegradeLevel < 1 {
		if time.Now().After(deadline) {
			t.Fatal("degrader never stepped up")
		}
		if _, err := s.Submit(ctx, Query{Candidates: 20}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.DegradeSteps == 0 {
		t.Error("DegradeSteps not counted")
	}

	// Step down: a huge SLA gives every sample comfortable headroom.
	s2 := newService(t, oneTenant(t, Config{Workers: 1, TuneInterval: 10 * time.Millisecond}, TenantConfig{
		BatchSize: 16,
		SLA:       time.Hour,
		Degrade:   DegradeConfig{Truncate: 8},
	}))
	s2.tenants[0].degLevel.Store(1)
	deadline = time.Now().Add(10 * time.Second)
	for s2.Stats().DegradeLevel > 0 {
		if time.Now().After(deadline) {
			t.Fatal("degrader never stepped down")
		}
		if _, err := s2.Submit(ctx, Query{Candidates: 20}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFailAbortsPromptly(t *testing.T) {
	s := newService(t, oneTenant(t, Config{Workers: 1}, TenantConfig{
		BatchSize: MaxBatchSize,
		Admission: AdmissionConfig{Policy: AdmitQueue, Concurrency: 1, Depth: 4},
	}))
	// Hold the admission slot open past the forward pass (see
	// TestCloseUnderSaturationAbandonsQueued) so the queue forms no matter
	// how fast the kernel backend is.
	if err := s.SetDelay(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One query executes, one parks in the admission queue.
	execErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Query{Candidates: 1000})
		execErr <- err
	}()
	waitFor(t, func() bool {
		s.tenants[0].adm.mu.Lock()
		busy := s.tenants[0].adm.inExec > 0
		s.tenants[0].adm.mu.Unlock()
		return busy
	})
	queuedErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Query{Candidates: 10})
		queuedErr <- err
	}()
	waitFor(t, func() bool { return s.tenants[0].adm.queued() == 1 })

	s.Fail()
	if err := <-queuedErr; !errors.Is(err, ErrReplicaDown) {
		t.Errorf("queued query at crash = %v, want ErrReplicaDown", err)
	}
	// The executing query either aborted on the crash or had already
	// finished its forward pass (completion wins by design).
	if err := <-execErr; err != nil && !errors.Is(err, ErrReplicaDown) {
		t.Errorf("in-flight query at crash = %v", err)
	}
	if !s.Failed() {
		t.Error("Failed() false after Fail")
	}
	if _, err := s.Submit(ctx, Query{Candidates: 10}); !errors.Is(err, ErrReplicaDown) {
		t.Errorf("Submit after crash = %v, want ErrReplicaDown", err)
	}
	st := s.Stats()
	if st.Failed < 2 { // the queued query, the post-crash submit, maybe the in-flight one
		t.Errorf("Failed = %d, want >= 2", st.Failed)
	}
	if !st.Conserved() {
		t.Errorf("counter identity: submitted %d != accounted (%+v)", st.Submitted, st)
	}
}

func TestScaleAndDelayInjection(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 16})
	if err := s.SetScale(3); err != nil {
		t.Fatal(err)
	}
	if got := s.Scale(); got != 3 {
		t.Errorf("Scale() = %v after SetScale(3)", got)
	}
	if err := s.SetScale(-1); err == nil {
		t.Error("negative scale accepted")
	}
	if err := s.SetScale(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SetDelay(-time.Second); err == nil {
		t.Error("negative delay accepted")
	}
	if err := s.SetDelay(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	r, err := s.Submit(context.Background(), Query{Candidates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency < 50*time.Millisecond {
		t.Errorf("latency %v under the injected 50ms delay", r.Latency)
	}
	if err := s.SetDelay(0); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionConfigValidation(t *testing.T) {
	m := testModel(t)
	bad := []TenantConfig{
		{Model: m, Admission: AdmissionConfig{Policy: AdmissionPolicy(9)}},
		{Model: m, Admission: AdmissionConfig{Policy: AdmitQueue, Concurrency: -1}},
		{Model: m, Admission: AdmissionConfig{Policy: AdmitQueue, Depth: -1}},
		{Model: m, Deadline: -time.Second},
		{Model: m, Degrade: DegradeConfig{Truncate: -1}},
	}
	for i, tc := range bad {
		if _, err := New(oneTenant(t, Config{}, tc)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
