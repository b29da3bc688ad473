package live

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// testGPU returns a fast accelerator model for offload-lane tests: fixed
// setup in the tens of microseconds and effectively infinite bandwidth, so
// modeled service times stay far below test timeouts.
func testGPU(streams int) *platform.GPU {
	return &platform.GPU{
		Name:           "test-accel",
		TDPWatts:       100,
		IdleWatts:      10,
		Streams:        streams,
		SetupTime:      50 * time.Microsecond,
		PCIeGBs:        1000,
		PeakGFLOPs:     1e6,
		KernelHalfSize: 1,
		AttnEff:        1,
		GRUGFLOPs:      1e6,
		GatherGBs:      1000,
	}
}

func TestOffloadConfigValidation(t *testing.T) {
	m := testModel(t)
	bad := []Config{
		{Model: m, GPUThreshold: 5}, // threshold without an accelerator
		{Model: m, GPUThreshold: -1, GPU: testGPU(1)},
		{Model: m, GPUThreshold: workload.MaxQuerySize + 1, GPU: testGPU(1)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad offload config %d accepted: %+v", i, cfg)
		}
	}
}

// TestThresholdBoundaryOffloadsWhole pins the routing rule: a query of
// exactly the threshold size is offloaded, whole (no batch splitting), and
// one below it is batched onto the CPU pool.
func TestThresholdBoundaryOffloadsWhole(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 16, GPU: testGPU(2), GPUThreshold: 100})
	ctx := context.Background()

	below, err := s.Submit(ctx, Query{Candidates: 99, TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if below.Offloaded || below.BatchSize != 16 {
		t.Errorf("size 99 under threshold 100: offloaded=%v batch=%d, want CPU lane at batch 16",
			below.Offloaded, below.BatchSize)
	}
	at, err := s.Submit(ctx, Query{Candidates: 100, TopN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !at.Offloaded || at.BatchSize != 100 {
		t.Errorf("size 100 at threshold 100: offloaded=%v batch=%d, want whole-query offload",
			at.Offloaded, at.BatchSize)
	}
	if len(at.Recs) != 2 {
		t.Fatalf("offloaded query returned %d recs, want 2", len(at.Recs))
	}
	for _, r := range at.Recs {
		if r.Item < 0 || r.Item >= 100 {
			t.Errorf("offloaded rec item %d outside candidate set", r.Item)
		}
	}
	// The modeled service time bounds the offloaded latency from below.
	if want := testGPU(2).QueryTime(s.tenants[0].profile, 100); at.Latency < want {
		t.Errorf("offloaded latency %v below modeled service time %v", at.Latency, want)
	}
}

// TestStatsGPUShares checks the offload accounting: query share counts
// queries, work share counts candidate items.
func TestStatsGPUShares(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 32, GPU: testGPU(2), GPUThreshold: 150})
	ctx := context.Background()
	for _, size := range []int{50, 50, 50, 200} {
		if _, err := s.Submit(ctx, Query{Candidates: size}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.GPUThreshold != 150 {
		t.Errorf("GPUThreshold = %d, want 150", st.GPUThreshold)
	}
	if st.GPUQueries != 1 {
		t.Errorf("GPUQueries = %d, want 1", st.GPUQueries)
	}
	if want := 0.25; math.Abs(st.GPUQueryShare-want) > 1e-9 {
		t.Errorf("GPUQueryShare = %v, want %v", st.GPUQueryShare, want)
	}
	if want := 200.0 / 350.0; math.Abs(st.GPUWorkShare-want) > 1e-9 {
		t.Errorf("GPUWorkShare = %v, want %v", st.GPUWorkShare, want)
	}
	if st.Completed != 4 {
		t.Errorf("Completed = %d, want 4", st.Completed)
	}
}

func TestSetGPUThreshold(t *testing.T) {
	cpuOnly := newService(t, Config{Workers: 1})
	if err := cpuOnly.SetGPUThreshold(10); err == nil {
		t.Error("SetGPUThreshold accepted on a CPU-only service")
	}

	s := newService(t, Config{Workers: 1, BatchSize: 8, GPU: testGPU(1)})
	if err := s.SetGPUThreshold(-1); err == nil {
		t.Error("negative threshold accepted")
	}
	if err := s.SetGPUThreshold(workload.MaxQuerySize + 1); err == nil {
		t.Error("oversized threshold accepted")
	}
	if err := s.SetGPUThreshold(20); err != nil || s.GPUThreshold() != 20 {
		t.Fatalf("SetGPUThreshold(20): %v, threshold %d", err, s.GPUThreshold())
	}
	r, err := s.Submit(context.Background(), Query{Candidates: 30})
	if err != nil || !r.Offloaded {
		t.Errorf("size 30 over threshold 20: err=%v offloaded=%v", err, r.Offloaded)
	}
	if err := s.SetGPUThreshold(0); err != nil {
		t.Fatal(err)
	}
	r, err = s.Submit(context.Background(), Query{Candidates: 30})
	if err != nil || r.Offloaded {
		t.Errorf("threshold 0 must disable offload: err=%v offloaded=%v", err, r.Offloaded)
	}
}

// TestOffloadCancelledAtAdmission pins the Executor contract on the
// accelerator lane: an already-cancelled context is refused at Enqueue with
// ctx.Err(), counted as cancelled, and spawns no device work.
func TestOffloadCancelledAtAdmission(t *testing.T) {
	s := newService(t, Config{Workers: 1, BatchSize: 8, GPU: testGPU(1), GPUThreshold: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Submit(ctx, Query{Candidates: 10}); err != context.Canceled {
		t.Fatalf("Submit with cancelled ctx = %v, want context.Canceled", err)
	}
	st := s.Stats()
	if st.Cancelled != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v, want 1 cancelled / 0 completed", st)
	}
}

// TestStreamsBoundConcurrentOffloads saturates a single-stream accelerator
// and checks queries serialize on the modeled device: total wall time is at
// least n times the modeled per-query service.
func TestStreamsBoundConcurrentOffloads(t *testing.T) {
	gpu := testGPU(1)
	s := newService(t, Config{Workers: 1, BatchSize: 8, GPU: gpu, GPUThreshold: 1})
	const n = 4
	per := gpu.QueryTime(s.tenants[0].profile, 10)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), Query{Candidates: 10}); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < time.Duration(n)*per {
		t.Errorf("%d offloads on 1 stream took %v, want >= %v (serialized)", n, elapsed, time.Duration(n)*per)
	}
	if st := s.Stats(); st.GPUQueries != n || st.Completed != n {
		t.Errorf("stats = %+v, want %d offloaded/completed", st, n)
	}
}

// TestOffloadRaceMixed hammers a two-lane service from many goroutines with
// sizes straddling the threshold while AutoTune walks both knobs and a
// manual tuner concurrently moves them too; -race covers the
// synchronization, the assertions cover the accounting.
func TestOffloadRaceMixed(t *testing.T) {
	s := newService(t, Config{
		Workers: 2, BatchSize: 16, WindowSize: 256,
		GPU: testGPU(2), GPUThreshold: 60,
		SLA: 50 * time.Millisecond, AutoTune: true, TuneInterval: 5 * time.Millisecond,
	})
	const goroutines, perG = 6, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				size := 10 + (g*perG+i)%120 // straddles the initial threshold
				if _, err := s.Submit(context.Background(), Query{Candidates: size, TopN: 2}); err != nil {
					t.Errorf("Submit(%d): %v", size, err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-time.After(time.Millisecond):
				s.SetBatchSize(8 + i%32)
				s.SetGPUThreshold(40 + i%80)
			case <-done:
				return
			}
		}
	}()
	wg.Wait()
	done <- struct{}{}
	<-done

	st := s.Stats()
	if st.Completed != goroutines*perG {
		t.Errorf("completed %d, want %d", st.Completed, goroutines*perG)
	}
	if st.GPUQueries == 0 || st.GPUQueries == st.Completed {
		t.Errorf("mixed load should split lanes: %d/%d offloaded", st.GPUQueries, st.Completed)
	}
	if st.GPUQueryShare <= 0 || st.GPUQueryShare >= 1 || st.GPUWorkShare <= 0 || st.GPUWorkShare >= 1 {
		t.Errorf("shares outside (0,1): %+v", st)
	}
}

// TestAwaitQueryPrefersCompletion pins the completion/cancellation race
// fix: when the query's done channel and the context are both ready, the
// completion must win — the work was fully executed, and reporting it
// cancelled would drop its latency sample and skew the counters. The old
// two-way select picked randomly, so 200 iterations catch a regression
// with overwhelming probability.
func TestAwaitQueryPrefersCompletion(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		iq := &inflight{done: make(chan struct{})}
		iq.pending.Store(1)
		iq.retire() // fully completed before the wait begins
		if err := s.awaitQuery(ctx, iq); err != nil {
			t.Fatalf("iteration %d: completed query reported cancelled: %v", i, err)
		}
	}
}

// TestAutoTuneWalksBothKnobs drives a two-lane service against an
// unmeetable SLA and checks the controller alternates: the batch size
// steps down for request parallelism and the threshold steps down from
// "off" to pull the heavy tail onto the accelerator.
func TestAutoTuneWalksBothKnobs(t *testing.T) {
	s := newService(t, Config{
		Workers: 2, BatchSize: 256, WindowSize: 256,
		GPU:      testGPU(2), // threshold 0: offload starts disabled
		SLA:      time.Nanosecond,
		AutoTune: true, TuneInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Submit(context.Background(), Query{Candidates: 16}); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Retunes >= 2 {
			break
		}
	}
	st := s.Stats()
	if st.Retunes < 2 {
		t.Fatalf("controller made %d moves, want >= 2", st.Retunes)
	}
	if st.BatchSize >= 256 {
		t.Errorf("batch never stepped down: %+v", st)
	}
	if st.GPUThreshold == 0 || st.GPUThreshold > workload.MaxQuerySize {
		t.Errorf("threshold never stepped in from off: %+v", st)
	}
}

// TestAutoTuneRelaxesThresholdUnderHeadroom checks the opposite walk: with
// a bottomless SLA the controller raises the threshold back toward the CPU
// pool (and off the accelerator entirely at the top of the ladder).
func TestAutoTuneRelaxesThresholdUnderHeadroom(t *testing.T) {
	s := newService(t, Config{
		Workers: 2, BatchSize: 1, WindowSize: 256,
		GPU: testGPU(2), GPUThreshold: 64,
		SLA: time.Hour, AutoTune: true, TuneInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := s.Submit(context.Background(), Query{Candidates: 8}); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Retunes >= 2 {
			break
		}
	}
	st := s.Stats()
	if st.Retunes < 2 {
		t.Fatalf("controller made %d moves, want >= 2", st.Retunes)
	}
	if st.BatchSize <= 1 {
		t.Errorf("batch never stepped up: %+v", st)
	}
	if st.GPUThreshold != 0 && st.GPUThreshold <= 64 {
		t.Errorf("threshold never relaxed above 64: %+v", st)
	}
}
