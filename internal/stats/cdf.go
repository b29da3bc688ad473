package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function built from samples.
// It supports inverse lookup (quantiles) and a distance between two
// distributions, which the fleet-subsampling experiment (paper Fig. 7) uses
// to show that a handful of nodes tracks the datacenter-wide latency
// distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	if len(samples) == 0 {
		panic("stats: NewCDF of empty sample set")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range [0,1]", q))
	}
	return percentileSorted(c.sorted, q*100)
}

// MaxQuantileRelError returns the maximum relative error between the
// quantiles of c and other, evaluated at the given quantile points. This is
// the "within ~10%" metric of paper Fig. 7: how far apart two latency
// distributions are in the region that matters for tail SLAs.
func (c *CDF) MaxQuantileRelError(other *CDF, qs []float64) float64 {
	var worst float64
	for _, q := range qs {
		a := c.Quantile(q)
		b := other.Quantile(q)
		denom := math.Max(math.Abs(a), math.Abs(b))
		if denom == 0 {
			continue
		}
		if rel := math.Abs(a-b) / denom; rel > worst {
			worst = rel
		}
	}
	return worst
}
