// Package nn implements the neural-network operator library used by the
// recommendation model zoo: fully-connected stacks, embedding-table lookups
// with pooling, DIN-style attention units, and GRU recurrence.
//
// Every operator exposes FLOP and byte accounting alongside its forward
// pass. The accounting feeds the workload characterization experiments
// (paper Figs. 1 and 3) and parameterizes the hardware performance models in
// internal/platform.
package nn

import (
	"fmt"
	"math"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// Activation identifies an elementwise nonlinearity.
type Activation int

// Supported activations. None is the identity and is used for final CTR
// logits that are consumed by a ranking comparator rather than a sigmoid.
const (
	None Activation = iota
	ReLU
	Sigmoid
	Tanh
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case None:
		return "none"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply applies the activation to t in place and returns t.
func (a Activation) Apply(t *tensor.Tensor) *tensor.Tensor {
	switch a {
	case None:
	case ReLU:
		tensor.ReLU(t.Data)
	case Sigmoid:
		for i, v := range t.Data {
			t.Data[i] = sigmoid(v)
		}
	case Tanh:
		for i, v := range t.Data {
			t.Data[i] = float32(math.Tanh(float64(v)))
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(a)))
	}
	return t
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}
