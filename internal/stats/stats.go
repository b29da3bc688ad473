// Package stats provides the statistical primitives used throughout
// DeepRecInfra: percentile estimation over latency samples, empirical CDFs,
// and aggregate summaries such as the geometric mean.
//
// All functions are deterministic and operate on float64 samples. Latency
// recorders in internal/serving convert durations to seconds before handing
// them to this package.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of samples using
// linear interpolation between closest ranks, matching the behaviour of
// numpy.percentile's default mode. It copies the input, leaving it unsorted.
// Percentile panics if samples is empty or p is out of range, because a
// missing percentile in a capacity search is a programming error, not a
// recoverable condition.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		panic("stats: Percentile of empty sample set")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted computes the percentile of an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the aggregate statistics of a sample set. It is the unit of
// reporting for latency experiments: a serving run produces one Summary.
type Summary struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	P50    float64
	P75    float64
	P90    float64
	P95    float64
	P99    float64
	Stddev float64
}

// Summarize computes a Summary of samples. It returns the zero Summary when
// samples is empty so callers can report "no data" without a special case.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)

	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0 // guard against catastrophic cancellation
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		P90:    percentileSorted(sorted, 90),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
		Stddev: math.Sqrt(variance),
	}
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// GeoMean panics otherwise, since a non-positive speedup indicates a broken
// experiment rather than data to be averaged.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: GeoMean of empty slice")
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean requires positive values, got %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
