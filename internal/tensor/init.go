package tensor

import (
	"math"
	"math/rand"
)

// RandUniform fills a new [rows x cols] tensor with values drawn uniformly
// from [-scale, scale) using the provided source. Model weights are seeded
// deterministically so every experiment run is reproducible.
func RandUniform(rng *rand.Rand, rows, cols int, scale float32) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// XavierUniform fills a new [in x out] weight tensor using Xavier/Glorot
// uniform initialization, the conventional choice for the fully-connected
// stacks in the model zoo. It keeps activations in a numerically sane range
// so inference outputs are meaningful probabilities after the sigmoid.
func XavierUniform(rng *rand.Rand, in, out int) *Tensor {
	return RandUniform(rng, in, out, xavierLimit(in, out))
}

func xavierLimit(in, out int) float32 { return float32(math.Sqrt(6.0 / float64(in+out))) }

// XavierPanel is XavierUniform laid out as a Panel: it draws the same values
// from rng in the same row-major order, so a seed yields the same weights in
// either form, but writes each row straight into its strips — a layer's
// weights never exist row-major.
func XavierPanel(rng *rand.Rand, in, out int) *Panel {
	limit := xavierLimit(in, out)
	p := newPanel(in, out)
	row := make([]float32, out)
	for r := 0; r < in; r++ {
		for c := range row {
			row[c] = (rng.Float32()*2 - 1) * limit
		}
		p.setRow(r, row)
	}
	return p
}

// RandNormal fills a new [rows x cols] tensor with N(0, stddev²) values.
// Embedding tables use a small-stddev normal init, matching common practice
// for latent-factor models.
func RandNormal(rng *rand.Rand, rows, cols int, stddev float32) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * stddev
	}
	return t
}
