package deeprecsys

import (
	"fmt"

	"github.com/deeprecinfra/deeprecsys/internal/serving"
)

// EngineKind selects how service times are obtained in the serving
// simulation.
type EngineKind int

const (
	// Analytical evaluates the calibrated performance models of the paper's
	// server CPUs and GPU-class accelerator (the default; supports WithGPU
	// and is the engine behind every paper artifact).
	Analytical EngineKind = iota
	// RealExecution times actual forward passes of the Go model on the
	// host machine. It grounds the analytical model in genuinely executed
	// arithmetic, but has no accelerator: combining it with WithGPU is a
	// construction-time error, not a runtime panic.
	RealExecution
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case Analytical:
		return "analytical"
	case RealExecution:
		return "real-execution"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// WithEngine selects the serving engine. The capability check — a
// real-execution engine cannot model an accelerator — runs in NewSystem,
// so an unsatisfiable combination fails at construction instead of
// panicking mid-experiment.
func WithEngine(kind EngineKind) Option {
	return func(s *System) { s.engineKind = kind }
}

// engine builds the serving engine for this system. The RealExecution model
// instance is built (and validated) in NewSystem, so this cannot fail.
func (s *System) engine() serving.Engine {
	if s.engineKind == RealExecution {
		return serving.NewRealEngine(s.model, s.cpu.Cores, s.seed)
	}
	return serving.NewPlatformEngine(s.cpu, s.gpu, s.cfg)
}
