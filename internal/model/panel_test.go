package model

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// A model's FC weights are resident once — as packed panels — whichever
// backend serves it: build DLRM-RMC3, forward under every backend this
// process can run, collect, and the live heap the model pins must be its
// embedding tables plus Profile.MLPWeightBytes (≈ 21.7 MB), not that plus a
// second (row-major, or per-backend) copy of the 8.9 MB of FC weights.
func TestFCWeightsResidentOncePerModelAcrossBackends(t *testing.T) {
	cfg, err := ByName("DLRM-RMC3")
	if err != nil {
		t.Fatal(err)
	}
	want := float64(BuildProfile(cfg).MLPWeightBytes) +
		4*float64(cfg.NumTables)*float64(cfg.TableRows)*float64(cfg.EmbDim)
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC() // the second cycle finishes sweeping what the first freed
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}

	prev := tensor.ActiveBackend()
	defer tensor.SetBackend(prev)
	before := liveHeap()
	m := MustNew(cfg, 1)
	for _, bk := range []tensor.Backend{tensor.Scalar, tensor.AVX2} {
		if tensor.SetBackend(bk) != nil {
			continue // AVX2 unavailable: one backend, same bound
		}
		in := m.NewInput(rand.New(rand.NewSource(2)), 4)
		m.ForwardInto(NewScratch(), in)
	}
	got := liveHeap() - before
	runtime.KeepAlive(m)
	t.Logf("live heap pinned: %.2f MB, accounted: %.2f MB", got/1e6, want/1e6)
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("live heap pinned by DLRM-RMC3 after a forward per backend = %.1f MB, want %.1f MB ±10%% (tables + FC weights once)",
			got/1e6, want/1e6)
	}
}

// The packed weights are immutable after construction, so a fresh model's
// first forward passes may run concurrently with nothing but a Scratch each:
// no lazy packing, no lock, no sync.Once on the hot path. Run under -race.
func TestConcurrentFirstForwardOnFreshModelSharesPanels(t *testing.T) {
	const workers = 8
	for _, name := range []string{"DLRM-RMC3", "NCF", "DIN"} {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := MustNew(cfg, 1)
		in := m.NewInput(rand.New(rand.NewSource(3)), 6)
		outs := make([][]float32, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				out := m.ForwardInto(NewScratch(), in)
				outs[g] = append([]float32(nil), out.Data...)
			}(g)
		}
		close(start)
		wg.Wait()
		for g := 1; g < workers; g++ {
			for i := range outs[0] {
				if math.Float32bits(outs[g][i]) != math.Float32bits(outs[0][i]) {
					t.Fatalf("%s: worker %d output %d = %v, worker 0 has %v", name, g, i, outs[g][i], outs[0][i])
				}
			}
		}
	}
}
