// Package sched implements DeepRecSched, the paper's core contribution: a
// hill-climbing scheduler that maximizes latency-bounded throughput (QPS
// under a p95 SLA) by co-designing two knobs per recommendation service:
//
//  1. the per-request batch size, trading request-level parallelism across
//     CPU cores against batch-level (SIMD/bandwidth) efficiency, and
//  2. the accelerator query-size threshold, offloading the heavy tail of
//     queries to a GPU-class device.
//
// The package also provides the production static baseline the paper
// compares against: a fixed batch size that splits the largest possible
// query evenly across all cores.
package sched

import (
	"fmt"
	"math"
)

// capacity is a candidate's latency-bounded throughput as the climbs see
// it: a rate in [lo, hi) that Narrow tightens, exactly lo once lo == hi.
// The schedulers' capacities are *serving.Brackets, so a climb spends
// simulations on a candidate only until its comparisons are settled.
type capacity interface {
	Bounds() (lo, hi float64)
	Narrow()
}

// Score is one evaluated operating point.
type Score struct {
	Value int // the knob setting (batch size or threshold)
	QPS   capacity
}

// evalFunc opens the capacity search at one knob setting.
type evalFunc func(value int) Score

// Plateau/degradation tolerances for the hill climb. An evaluation within
// degradeTol of the best seen so far is a plateau — the climb continues
// without penalty, which matters because the threshold sweep starts on a
// long flat region (every low threshold sends essentially all queries to
// the accelerator). Only drops beyond degradeTol count against patience.
const (
	improveTol = 0.01
	degradeTol = 0.05
)

// climb walks the ordered candidate values, keeping the best score, and
// stops after `patience` degraded evaluations since the last improvement —
// the hill-climbing loop of paper Section IV-C. It returns the best score
// and the number of evaluations spent.
func climb(cands []int, patience int, eval evalFunc) (Score, int) {
	if len(cands) == 0 {
		panic("sched: climb with no candidates")
	}
	if patience < 1 {
		panic(fmt.Sprintf("sched: patience must be >= 1, got %d", patience))
	}
	best := eval(cands[0])
	evals := 1
	bad := 0
	for _, v := range cands[1:] {
		s := eval(v)
		evals++
		switch {
		case exceeds(s.QPS, best.QPS, 1+improveTol):
			best = s
			bad = 0
		case trails(s.QPS, best.QPS, 1-degradeTol):
			bad++
			if bad >= patience {
				return best, evals
			}
		default:
			// Plateau: prefer the higher score but keep climbing.
			if exceeds(s.QPS, best.QPS, 1) {
				best = s
			}
		}
	}
	return best, evals
}

// refine probes the midpoints between the best value and its power-step
// neighbours, keeping whichever operating point wins. It costs at most two
// extra evaluations and recovers most of the gap a coarse multiplicative
// climb leaves on the table.
func refine(best Score, eval evalFunc) (Score, int) {
	return refineUpTo(best, math.MaxInt, eval)
}

// refineUpTo is refine for a knob whose values above max are all one
// operating point, already evaluated at max: it skips them.
func refineUpTo(best Score, max int, eval evalFunc) (Score, int) {
	evals := 0
	lower := best.Value - best.Value/4 // midpoint toward value/2
	upper := best.Value + best.Value/2 // midpoint toward 2*value
	for _, v := range []int{lower, upper} {
		if v <= 0 || v == best.Value || v > max {
			continue
		}
		s := eval(v)
		evals++
		if exceeds(s.QPS, best.QPS, 1) {
			best = s
		}
	}
	return best, evals
}

// exceeds reports whether a > b·k, the exact rates compared in float64
// arithmetic. The rounded product is monotone in b, so fl(b·k) lies between
// fl(lo·k) and fl(hi·k) of b's bounds; the relatively wider of the two
// capacities is narrowed until the bounds settle the comparison.
func exceeds(a, b capacity, k float64) bool {
	for {
		alo, ahi := a.Bounds()
		blo, bhi := b.Bounds()
		switch {
		case alo > bhi*k:
			return true
		case ahi <= blo*k:
			return false
		}
		narrowWider(a, b)
	}
}

// trails reports whether a < b·k on the exact rates, as exceeds does.
func trails(a, b capacity, k float64) bool {
	for {
		alo, ahi := a.Bounds()
		blo, bhi := b.Bounds()
		switch {
		case ahi < blo*k:
			return true
		case alo >= bhi*k:
			return false
		}
		narrowWider(a, b)
	}
}

// narrowWider narrows whichever of a and b has the larger hi/lo: a done
// capacity has none left to narrow, one whose gate has not run an infinite
// ratio.
func narrowWider(a, b capacity) {
	if width(a) >= width(b) {
		a.Narrow()
	} else {
		b.Narrow()
	}
}

func width(c capacity) float64 {
	lo, hi := c.Bounds()
	if lo == hi {
		return 0
	}
	return hi / lo
}

// powersOfTwo returns {1, 2, 4, ..., <=max}, always including max itself
// when it is not already a power of two.
func powersOfTwo(max int) []int {
	if max < 1 {
		panic(fmt.Sprintf("sched: powersOfTwo max %d < 1", max))
	}
	var out []int
	for v := 1; v <= max; v *= 2 {
		out = append(out, v)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
