package serving

import (
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// RealEngine measures service times by actually executing the Go model on
// the host CPU: every CPURequest call builds a fresh random input of the
// requested batch size and times a forward pass. It grounds the analytical
// platform models in genuinely executed arithmetic and powers the functional
// examples. The accelerator path is unavailable — a RealEngine is this
// machine, and this machine has no modeled GPU.
//
// The serving simulator that drives the engine is single-threaded, so the
// shared stream and scratch need no locking. "Cores" is the number of simulated
// workers; service times are measured serially on the host, so contention
// between simulated cores is not reflected (use PlatformEngine for
// contention studies). The engine owns a model.Scratch, so steady-state
// requests execute allocation-free: measured service times reflect the
// arithmetic, not the garbage collector.
type RealEngine struct {
	Model   *model.Model
	NumCore int
	stream  *model.Stream // the lanes' draw: the timed pass runs over what a lane would feed it

	// Per-engine working memory: scratches[0] doubles as the input scratch;
	// the rest exist only when SetParallel enabled intra-request splitting.
	scratches []*model.Scratch
	parallel  int
}

// NewRealEngine wraps an instantiated model as a serving engine with the
// given simulated core count.
func NewRealEngine(m *model.Model, cores int, seed int64) *RealEngine {
	if cores < 1 {
		panic("serving: RealEngine needs at least one core")
	}
	return &RealEngine{
		Model:     m,
		NumCore:   cores,
		stream:    model.NewStream(seed),
		scratches: []*model.Scratch{model.NewScratch()},
		parallel:  1,
	}
}

// SetParallel lets big-batch requests split their forward pass row-wise
// across up to workers goroutines (internal/par), one scratch arena each.
// Results are bit-identical to serial execution; only the measured wall
// time changes, which is the point — the engine then reports what the host
// can actually do with its cores. workers <= 1 restores serial execution
// (the default, and the configuration every recorded artifact uses).
func (e *RealEngine) SetParallel(workers int) {
	if workers < 1 {
		workers = 1
	}
	e.parallel = workers
	for len(e.scratches) < workers {
		e.scratches = append(e.scratches, model.NewScratch())
	}
}

// CPURequest implements Engine by timing a real forward pass. Input
// generation happens outside the timed region: the paper's serving stack
// receives already-materialized feature tensors from upstream services.
func (e *RealEngine) CPURequest(batch, active int) time.Duration {
	in := e.Model.NewInputSampled(e.scratches[0], e.stream, batch, nil)
	start := time.Now()
	e.Model.ForwardMaybeSplit(e.scratches[:e.parallel], in)
	return time.Since(start)
}

// GPUQuery implements Engine; RealEngine has no accelerator.
func (e *RealEngine) GPUQuery(size int) time.Duration {
	panic("serving: RealEngine has no accelerator")
}

// Cores implements Engine.
func (e *RealEngine) Cores() int { return e.NumCore }

// HasGPU implements Engine.
func (e *RealEngine) HasGPU() bool { return false }

// GPUStreams implements Engine.
func (e *RealEngine) GPUStreams() int { return 1 }
