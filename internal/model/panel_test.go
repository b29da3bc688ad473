package model

import (
	"fmt"
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
	for _, bk := range tensor.Backends() {
		if err := tensor.SetBackend(bk); err != nil {
			t.Fatal(err)
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

// The vector tier is one tier at the model level too: every zoo model's
// forward pass must produce the same bits under AVX2 and AVX512, at batch
// sizes on both sides of the 4- and 8-row blocks and at the serving batch.
// Beyond what the FC-layer tests reach, this drives DIEN's GRU gates (panel
// Linears at one row per step) and DIN's attention. Skipped, not passed
// vacuously, where AVX512 cannot run.
func TestZooForwardBitIdenticalAcrossVectorBackends(t *testing.T) {
	prev := tensor.ActiveBackend()
	if err := tensor.SetBackend(tensor.AVX512); err != nil {
		t.Skipf("backend %v unavailable: %v", tensor.AVX512, err)
	}
	defer tensor.SetBackend(prev)
	for _, cfg := range Zoo() {
		m := MustNew(cfg, 1)
		s := NewScratch()
		for _, b := range []int{1, 7, 8, 9, 37, 256} {
			in := m.NewInput(rand.New(rand.NewSource(int64(b))), b)
			var narrow *tensor.Tensor
			for _, bk := range []tensor.Backend{tensor.AVX2, tensor.AVX512} {
				if err := tensor.SetBackend(bk); err != nil {
					t.Fatal(err)
				}
				out := m.ForwardInto(s, in)
				if bk == tensor.AVX2 {
					narrow = out.Clone() // out lives in the scratch
					continue
				}
				sameBits(t, fmt.Sprintf("%s b%d under avx512 vs avx2", cfg.Name, b), out, narrow)
			}
		}
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
