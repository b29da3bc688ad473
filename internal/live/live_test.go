package live

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// oneTenant is cfg serving the single tenant tc, over the test model unless
// tc names one, named after its model: the single-model service of a test
// that sets a per-tenant field the Config shorthand does not carry.
func oneTenant(t testing.TB, cfg Config, tc TenantConfig) Config {
	t.Helper()
	if tc.Model == nil {
		tc.Model = testModel(t)
	}
	tc.Name = tc.Model.Cfg.Name
	cfg.Tenants = []TenantConfig{tc}
	return cfg
}

// testModel builds a small, fast zoo model for live-serving tests.
func testModel(t testing.TB) *model.Model {
	t.Helper()
	cfg, err := model.ByName("NCF")
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Model == nil && len(cfg.Tenants) == 0 {
		cfg.Model = testModel(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
	m := testModel(t)
	bad := []Config{
		{Model: m, Workers: -1},
		{Model: m, BatchSize: MaxBatchSize + 1},
		{Model: m, AutoTune: true}, // no SLA
		{Model: m, TuneInterval: -time.Second},
		{Model: m, Scale: -1},
		{Model: m, Scale: math.NaN()},
		{Model: m, Scale: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// The one-tenant shorthand's BatchSize and SLA are its tenant's: a bad
	// one is refused naming that tenant, named after its model.
	for _, cfg := range []Config{{Model: m, BatchSize: -5}, {Model: m, SLA: -time.Second}} {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("single-model config %+v accepted", cfg)
		} else if !strings.Contains(err.Error(), "tenant 0 (NCF)") {
			t.Errorf("single-model error does not name the tenant: %v", err)
		}
	}
}

// badPerTenant is every out-of-range value a per-tenant field can take.
var badPerTenant = []struct {
	name string
	set  func(*TenantConfig)
}{
	{"negative SLA", func(tc *TenantConfig) { tc.SLA = -time.Second }},
	{"negative batch", func(tc *TenantConfig) { tc.BatchSize = -5 }},
	{"batch above MaxBatchSize", func(tc *TenantConfig) { tc.BatchSize = MaxBatchSize + 1 }},
	{"negative threshold", func(tc *TenantConfig) { tc.GPUThreshold = -1 }},
	{"threshold without a GPU", func(tc *TenantConfig) { tc.GPUThreshold = 100 }},
	{"unknown admission policy", func(tc *TenantConfig) { tc.Admission.Policy = AdmitShedOldest + 1 }},
	{"negative admission concurrency",
		func(tc *TenantConfig) { tc.Admission = AdmissionConfig{Policy: AdmitReject, Concurrency: -1} }},
	{"negative admission depth", func(tc *TenantConfig) { tc.Admission = AdmissionConfig{Policy: AdmitQueue, Depth: -1} }},
	{"negative deadline", func(tc *TenantConfig) { tc.Deadline = -time.Second }},
	{"negative truncation", func(tc *TenantConfig) { tc.Degrade.Truncate = -1 }},
	{"truncation above MaxQuerySize", func(tc *TenantConfig) { tc.Degrade.Truncate = workload.MaxQuerySize + 1 }},
	{"degrade ladder without an SLA", func(tc *TenantConfig) { tc.Degrade.Truncate = 8 }},
	{"negative share", func(tc *TenantConfig) { tc.Share = -1 }},
	{"NaN share", func(tc *TenantConfig) { tc.Share = math.NaN() }},
}

func TestSubmitValidation(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 8})
	if _, err := s.Submit(context.Background(), Query{Candidates: 0}); err == nil {
		t.Error("zero candidates accepted")
	}
	if _, err := s.Submit(context.Background(), Query{Candidates: 5, TopN: -1}); err == nil {
		t.Error("negative TopN accepted")
	}
	if _, err := s.Submit(context.Background(), Query{Candidates: workload.MaxQuerySize + 1}); err == nil {
		t.Error("oversized query accepted")
	}
}

// TestConcurrentSubmitters hammers the service from many goroutines and
// checks every reply is well-formed; -race covers the synchronization.
func TestConcurrentSubmitters(t *testing.T) {
	s := newService(t, Config{Workers: 4, BatchSize: 16})
	const goroutines, perG = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				candidates := 5 + (g*perG+i)%60
				reply, err := s.Submit(context.Background(), Query{Candidates: candidates, TopN: 3})
				if err != nil {
					errs <- err
					return
				}
				if len(reply.Recs) != min(3, candidates) {
					t.Errorf("got %d recs for %d candidates", len(reply.Recs), candidates)
				}
				for j, r := range reply.Recs {
					if r.Item < 0 || r.Item >= candidates {
						t.Errorf("item %d outside candidate set %d", r.Item, candidates)
					}
					if j > 0 && r.CTR > reply.Recs[j-1].CTR {
						t.Error("recs not sorted by CTR")
					}
				}
				if reply.Latency <= 0 {
					t.Error("non-positive latency")
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != goroutines*perG || st.Submitted != goroutines*perG {
		t.Errorf("stats = %+v, want %d completed", st, goroutines*perG)
	}
	if st.P95 <= 0 || st.P50 > st.P95 {
		t.Errorf("online percentiles inconsistent: %+v", st)
	}
}

// gatedAccess is an index distribution whose draws block until open is
// closed — a test seam that parks a CPU worker inside a chunk for exactly as
// long as the test wants, however fast the kernels are.
type gatedAccess struct {
	entered chan struct{} // closed at the first blocked draw
	open    chan struct{}
	once    *sync.Once
}

func (g gatedAccess) Name() string { return "gated" }
func (g gatedAccess) Source(*rand.Rand, int) workload.IndexSource {
	return g
}
func (g gatedAccess) Next() int {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	return 0
}

// TestContextCancellationMidQuery cancels a query while its chunks are
// queued behind a clogged single-worker pipeline. The clog is a gate, not a
// race against the clock: the lone worker is parked inside the holder
// query's first chunk until the cancelled query has returned, so the
// verdict does not depend on how fast the kernels run.
func TestContextCancellationMidQuery(t *testing.T) {
	gate := gatedAccess{entered: make(chan struct{}), open: make(chan struct{}), once: new(sync.Once)}
	s := newService(t, oneTenant(t, Config{Workers: 1}, TenantConfig{BatchSize: 1, Access: gate}))
	openGate := sync.OnceFunc(func() { close(gate.open) })
	defer openGate() // a failed assertion must not leave the worker parked under Close
	// Clog the lone worker and its 8-deep queue with a many-chunk query.
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		if _, err := s.Submit(context.Background(), Query{Candidates: 200}); err != nil {
			t.Errorf("background query: %v", err)
		}
	}()
	<-gate.entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := s.Submit(ctx, Query{Candidates: 200})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit = %v, want deadline exceeded", err)
	}
	openGate()
	<-bgDone
	st := s.Stats()
	if st.Cancelled != 1 || st.Completed != 1 {
		t.Errorf("stats = %+v, want 1 cancelled / 1 completed", st)
	}
}

// TestCloseDrains checks graceful shutdown: queries in flight when Close
// begins complete normally, Close returns only after they have, and later
// submissions are rejected with ErrClosed.
func TestCloseDrains(t *testing.T) {
	s := newService(t, Config{Workers: 2, BatchSize: 8})
	const n = 10
	var started, returned atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Add(1)
			_, err := s.Submit(context.Background(), Query{Candidates: 40})
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("Submit: %v", err)
			}
			returned.Add(1)
		}()
	}
	for started.Load() < n {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Every Submit that entered before Close must have returned by now:
	// Close waits out the in-flight count before tearing the pool down.
	if got := returned.Load(); got != started.Load() {
		t.Errorf("Close returned with %d/%d submits outstanding", started.Load()-got, started.Load())
	}
	wg.Wait()
	if _, err := s.Submit(context.Background(), Query{Candidates: 4}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Submit = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	st := s.Stats()
	if st.Completed+st.Cancelled != uint64(st.Submitted) {
		t.Errorf("accounting leak: %+v", st)
	}
}

// TestOnlineP95MatchesReplies drives a deterministic fixed-size workload
// serially and checks the online p95 is exactly that of a reference window
// fed the measured replies (the window holds every sample).
func TestOnlineP95MatchesReplies(t *testing.T) {
	s := newService(t, Config{Workers: 2, BatchSize: 32, SLA: time.Minute})
	const n = 80
	ref := stats.NewWindow(n)
	for i := 0; i < n; i++ {
		reply, err := s.Submit(context.Background(), Query{Candidates: 64})
		if err != nil {
			t.Fatal(err)
		}
		ref.Add(reply.Latency.Seconds())
	}
	st := s.Stats()
	if st.WindowLen != n {
		t.Fatalf("window holds %d samples, want %d", st.WindowLen, n)
	}
	want := time.Duration(ref.Percentile(95) * float64(time.Second))
	if st.P95 != want {
		t.Errorf("online p95 %v != empirical p95 %v", st.P95, want)
	}
	if !st.MeetsSLA() {
		t.Errorf("a minute-scale SLA should be met, stats %+v", st)
	}
}

// TestAutoTuneStepsDown checks the controller reacts to a breached tail by
// reducing the batch size (more request-level parallelism).
func TestAutoTuneStepsDown(t *testing.T) {
	s := newService(t, Config{
		Workers: 2, BatchSize: 256,
		SLA:      time.Nanosecond, // unmeetable: every sample breaches
		AutoTune: true, TuneInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Submit(context.Background(), Query{Candidates: 16}); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Retunes >= 2 {
			break
		}
	}
	st := s.Stats()
	if st.Retunes < 1 || st.BatchSize >= 256 {
		t.Errorf("controller never stepped down: %+v", st)
	}
}

// TestAutoTuneStepsUp checks the controller recovers batch efficiency when
// the tail has ample headroom.
func TestAutoTuneStepsUp(t *testing.T) {
	s := newService(t, Config{
		Workers: 2, BatchSize: 1,
		SLA:      time.Hour, // bottomless headroom
		AutoTune: true, TuneInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Submit(context.Background(), Query{Candidates: 8}); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Retunes >= 1 {
			break
		}
	}
	st := s.Stats()
	if st.Retunes < 1 || st.BatchSize <= 1 {
		t.Errorf("controller never stepped up: %+v", st)
	}
}

// TestAutoTuneClampsAtMax starts from a non-power-of-two batch so the
// doubling step would overshoot MaxBatchSize without the clamp.
func TestAutoTuneClampsAtMax(t *testing.T) {
	s := newService(t, Config{
		Workers: 2, BatchSize: 600,
		SLA: time.Hour, AutoTune: true, TuneInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Submit(context.Background(), Query{Candidates: 8}); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Retunes >= 1 {
			break
		}
	}
	st := s.Stats()
	if st.Retunes < 1 {
		t.Fatal("controller never stepped up")
	}
	if st.BatchSize <= 600 || st.BatchSize > MaxBatchSize {
		t.Errorf("batch %d after step-up, want (600, %d]", st.BatchSize, MaxBatchSize)
	}
}

// TestIntraOpParallelism runs big-batch queries through a pool whose
// workers split each chunk across the par pool — per-part scratch arenas
// active — under concurrent submitters; -race pins the arena ownership
// rules. Ranked results must be exactly those of a serial service with the
// same seed, because row-split forwards are bit-identical.
func TestIntraOpParallelism(t *testing.T) {
	m := testModel(t)
	serial := newService(t, Config{Model: m, Workers: 1, BatchSize: 512, Seed: 11})
	split := newService(t, Config{Model: m, Workers: 1, BatchSize: 512, Seed: 11, IntraOp: 4})

	// Both single-worker pools draw inputs from identical RNG streams, so
	// the first query of each is directly comparable.
	const candidates, topN = 400, 7
	want, err := serial.Submit(context.Background(), Query{Candidates: candidates, TopN: topN})
	if err != nil {
		t.Fatal(err)
	}
	got, err := split.Submit(context.Background(), Query{Candidates: candidates, TopN: topN})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Recs) != len(want.Recs) {
		t.Fatalf("got %d recs, want %d", len(got.Recs), len(want.Recs))
	}
	for i := range want.Recs {
		if got.Recs[i] != want.Recs[i] {
			t.Fatalf("rec %d = %+v, want %+v (intra-op split changed results)", i, got.Recs[i], want.Recs[i])
		}
	}

	// Now hammer the split service concurrently; -race checks the arenas.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := split.Submit(context.Background(), Query{Candidates: 300, TopN: 5}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestIntraOpValidation(t *testing.T) {
	m := testModel(t)
	if _, err := New(Config{Model: m, IntraOp: -1}); err == nil {
		t.Error("negative IntraOp accepted")
	}
	if _, err := New(Config{Model: m, IntraOp: 65}); err == nil {
		t.Error("oversized IntraOp accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
