package platform

import (
	"fmt"
	"math"
	"math/rand"
)

// SpeedFactors draws n per-node service-time scale factors from
// N(1, jitter²) clamped to ±3 jitter (and floored above zero) — the
// node-heterogeneity model (silicon quality, thermal headroom, co-tenancy)
// behind the paper's fleet experiments. A factor of 1.05 is a node 5%
// slower than nominal. The offline fleet figures (internal/experiments) and
// the live fleet tier (internal/fleet, via the root Service) both draw from
// it, so a jitter level studied offline deploys to live replicas with the
// same statistics.
func SpeedFactors(n int, jitter float64, seed int64) []float64 {
	if n < 1 {
		panic(fmt.Sprintf("platform: fleet needs at least one node, got %d", n))
	}
	if !(jitter >= 0 && jitter <= math.MaxFloat64) { // NaN and +Inf fail too
		panic(fmt.Sprintf("platform: jitter %v is not a finite non-negative number", jitter))
	}
	rng := rand.New(rand.NewSource(seed))
	factors := make([]float64, n)
	for i := range factors {
		factor := 1 + float64(rng.NormFloat64()*jitter)
		if min := 1 - float64(3*jitter); factor < min {
			factor = min
		}
		if max := 1 + float64(3*jitter); factor > max {
			factor = max
		}
		if factor <= 0 {
			factor = 0.01
		}
		factors[i] = factor
	}
	return factors
}
