// Package workload models the real-time query characteristics of at-scale
// recommendation inference (paper Section III-C): query arrival processes
// (open-loop Poisson, the paper's model of independent user requests, plus
// a uniform closed-loop control) and working-set (query size) distributions,
// including the production distribution whose heavy tail — heavier than the
// canonical lognormal used in prior web-service studies (Fig. 5) — drives
// DeepRecSched's design: it is exactly that tail the accelerator offload
// threshold carves off.
//
// The package also owns the textual workload spec grammar shared by every
// query-stream producer (documented canonically on the public
// deeprecsys.ParseWorkload; implemented by ParseDist and ParseArrivals),
// the CSV trace interchange format (ReadTrace/WriteTrace, with Empirical
// deriving a size distribution from a recorded trace), and pre-generated
// arrival streams for the capacity search (PoissonStream).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// MaxQuerySize is the largest number of candidate items a single query may
// carry, matching the production distribution's observed maximum in the
// paper (Fig. 5, and the basis for the static baseline's batch size).
const MaxQuerySize = 1000

// SizeDist draws the number of candidate items in a query.
type SizeDist interface {
	// Sample draws one query size in [1, MaxQuerySize].
	Sample(rng *rand.Rand) int
	// Name identifies the distribution in reports.
	Name() string
}

// clampSize bounds a drawn size into [1, MaxQuerySize].
func clampSize(v float64) int {
	if v < 1 {
		return 1
	}
	if v > MaxQuerySize {
		return MaxQuerySize
	}
	return int(v)
}

// Fixed is a degenerate distribution: every query has the same size. It is
// the working-set assumption of several prior web-service studies and a
// useful control in experiments.
type Fixed struct{ Size int }

// Sample implements SizeDist.
func (f Fixed) Sample(*rand.Rand) int { return clampSize(float64(f.Size)) }

// Name implements SizeDist.
func (f Fixed) Name() string { return fmt.Sprintf("fixed(%d)", f.Size) }

// Normal draws sizes from N(Mean, Stddev²), clamped to the valid range.
type Normal struct {
	Mean, Stddev float64
}

// Sample implements SizeDist.
func (n Normal) Sample(rng *rand.Rand) int {
	return clampSize(float64(rng.NormFloat64()*n.Stddev) + n.Mean)
}

// Name implements SizeDist.
func (n Normal) Name() string { return fmt.Sprintf("normal(%.0f,%.0f)", n.Mean, n.Stddev) }

// LogNormal draws sizes from exp(N(Mu, Sigma²)), the canonical web-service
// working-set model (paper Fig. 5's comparison distribution).
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements SizeDist.
func (l LogNormal) Sample(rng *rand.Rand) int {
	return clampSize(math.Exp(float64(rng.NormFloat64()*l.Sigma) + l.Mu))
}

// Name implements SizeDist.
func (l LogNormal) Name() string { return fmt.Sprintf("lognormal(%.2f,%.2f)", l.Mu, l.Sigma) }

// Production models the query-size distribution profiled from production
// recommendation services: a lognormal body carrying most queries plus a
// Pareto (power-law) tail that is markedly heavier than any lognormal fit —
// the paper's key observation about recommendation working sets. Roughly a
// quarter of the mass sits beyond the body's reach, so the p75 boundary
// separates the "small query" majority from the tail that dominates
// execution time (Fig. 6).
type Production struct {
	// BodyMu/BodySigma parameterize the lognormal body.
	BodyMu, BodySigma float64
	// TailWeight is the probability a query comes from the Pareto tail.
	TailWeight float64
	// TailXm/TailAlpha parameterize the Pareto tail (scale and shape).
	TailXm, TailAlpha float64
}

// DefaultProduction returns the production-representative distribution used
// throughout the experiments: mean ≈ 130 items, p75 ≈ 130, max 1000, with
// ~20% of queries from the heavy tail (TailWeight 0.20) — matching the
// qualitative shape of the paper's Fig. 5.
func DefaultProduction() Production {
	return Production{
		BodyMu:     math.Log(50),
		BodySigma:  0.85,
		TailWeight: 0.20,
		TailXm:     120,
		TailAlpha:  1.8,
	}
}

// DefaultLogNormal returns the lognormal comparison distribution with a
// similar central mass to DefaultProduction but the lighter canonical tail
// (used for the Fig. 12a query-size-distribution sensitivity study).
func DefaultLogNormal() LogNormal {
	return LogNormal{Mu: math.Log(70), Sigma: 0.75}
}

// Sample implements SizeDist.
func (p Production) Sample(rng *rand.Rand) int {
	if rng.Float64() < p.TailWeight {
		// Inverse-CDF Pareto draw: xm · U^(-1/α).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return clampSize(p.TailXm * math.Pow(u, -1/p.TailAlpha))
	}
	return clampSize(math.Exp(float64(rng.NormFloat64()*p.BodySigma) + p.BodyMu))
}

// Name implements SizeDist.
func (p Production) Name() string { return "production" }

// Quantile estimates the q-th quantile (0<=q<=1) of a size distribution by
// drawing n samples with the given seed. Experiments use it to locate the
// p75 small/large query boundary of Fig. 6 and to size the static baseline.
func Quantile(d SizeDist, q float64, n int, seed int64) int {
	if n <= 0 {
		panic("workload: Quantile needs n > 0")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("workload: quantile %v out of range", q))
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([]int, n)
	for i := range samples {
		samples[i] = d.Sample(rng)
	}
	sort.Ints(samples)
	idx := int(q * float64(n-1))
	return samples[idx]
}

// MeanSize estimates the mean of a size distribution by sampling.
func MeanSize(d SizeDist, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	return sum / float64(n)
}
