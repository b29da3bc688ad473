// Package stats provides the statistical primitives used throughout
// DeepRecInfra: percentile estimation over latency samples, empirical CDFs,
// and aggregate summaries such as the geometric mean.
//
// All functions are deterministic and operate on float64 samples. The
// serving simulator and the live path convert durations to seconds before
// handing them to this package.
package stats

import (
	"fmt"
	"math"
	"slices"
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
	lo, hi, frac := ranks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// ranks returns the two closest ranks the p-th percentile of n sorted
// samples interpolates between, and the weight of the upper one.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	rank := float64(p / 100 * float64(n-1))
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// SelectPercentile returns Percentile(samples, p) bit for bit, in O(n): it
// selects the two order statistics Percentile interpolates between instead
// of sorting, and reorders samples in doing so. Samples must not be NaN; a
// zero result may differ in sign where -0 and +0 tie at those ranks, whose
// order sort leaves unspecified too.
func SelectPercentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		panic("stats: SelectPercentile of empty sample set")
	}
	lo, hi, frac := ranks(len(samples), p)
	selectRank(samples, lo)
	if lo == hi {
		return samples[lo]
	}
	next := samples[hi]
	for _, v := range samples[hi+1:] {
		next = min(next, v)
	}
	return float64(samples[lo]*(1-frac)) + float64(next*frac)
}

// selectRank reorders x so that x[k] holds the k-th smallest value, with no
// larger value before it and no smaller one after it (Hoare's FIND, with a
// median-of-three pivot). Its caller is the offline capacity probe, whose
// latencies come in completion order: nearly sorted on a probe whose queue
// keeps growing. Inputs whose pivots keep landing next to an end — a sorted
// run rotated by one — would take quadratic time, so once three partitions
// have each kept more than 3/4 of the range, the range still open is sorted
// instead.
func selectRank(x []float64, k int) {
	lo, hi := 0, len(x)-1
	for stalls := 0; lo < hi; {
		span := hi - lo
		a, b, c := x[lo], x[lo+(hi-lo)/2], x[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for pivot < x[j] {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		// x[lo:j+1] <= pivot, x[j+1:i] == pivot, x[i:hi+1] >= pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
		if hi-lo > span*3/4 {
			if stalls++; stalls == 3 {
				sort.Float64s(x[lo : hi+1])
				return
			}
		}
	}
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
	return SummarizeInPlace(slices.Clone(samples))
}

// SummarizeInPlace is Summarize on samples the caller lets it sort: it
// reorders samples instead of copying them.
func SummarizeInPlace(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := samples
	sort.Float64s(sorted)

	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += float64(v * v)
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - float64(mean*mean)
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
