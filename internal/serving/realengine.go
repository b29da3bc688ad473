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
	stream  *model.Stream  // the lanes' draw: the timed pass runs over what a lane would feed it
	scratch *model.Scratch // per-engine working memory, the input's and the pass's
}

// NewRealEngine wraps an instantiated model as a serving engine with the
// given simulated core count.
func NewRealEngine(m *model.Model, cores int, seed int64) *RealEngine {
	if cores < 1 {
		panic("serving: RealEngine needs at least one core")
	}
	return &RealEngine{
		Model:   m,
		NumCore: cores,
		stream:  model.NewStream(seed),
		scratch: model.NewScratch(),
	}
}

// CPURequest implements Engine by timing a real forward pass. Input
// generation happens outside the timed region: the paper's serving stack
// receives already-materialized feature tensors from upstream services.
func (e *RealEngine) CPURequest(batch, active int) time.Duration {
	in := e.Model.NewInputSampled(e.scratch, e.stream, batch, nil)
	start := time.Now()
	e.Model.ForwardInto(e.scratch, in)
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
