package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p percent of the samples at or below it.
// An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median averages the two middle samples of an even-sized set, so the
// median of a handful of window or round values is not biased low the way
// a nearest-rank p50 would be.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the driver computes run-to-run spread
// with; -compare must agree with it. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance as a share of the median: the
// driver's steadiness measure. Fewer than two samples have no spread.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// rung is one dwell of the sla_qps ladder, already reduced to what the rule
// needs.
type rung struct {
	Rate        float64 // nominal offered rate, the value sla_qps reports
	Offered     float64 // queries that fell due in the dwell, per second
	P95ms       float64 // whole-dwell p95 from due time; misses count as +Inf
	Achieved    float64 // completed within the dwell, per second
	Outstanding int     // due but not completed when the dwell ended
}

// slaQPS is the paper's metric on a fixed ladder: the highest offered rate
// whose p95 met the SLA while the system kept up — it completed at least
// 98% of what fell due, and at dwell end no more than w queries were in
// flight with w more waiting for a sender. It is 0 when no rung passes, and
// capped reports that the top rung passed, so the true value lies above the
// ladder.
func slaQPS(ladder []rung, slaMs float64, w int) (qps float64, capped bool) {
	for i, r := range ladder {
		pass := r.P95ms <= slaMs && r.Achieved >= 0.98*r.Offered && r.Outstanding <= 2*w
		if pass && r.Rate > qps {
			qps = r.Rate
			capped = i == len(ladder)-1
		}
	}
	return qps, capped
}
