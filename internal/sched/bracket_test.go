package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/serving"
)

// point is a capacity known exactly: a done bracket.
type point float64

func (p point) Bounds() (float64, float64) { return float64(p), float64(p) }
func (point) Narrow()                      { panic("sched: narrowed a done capacity") }

// eagerScore is an operating point as the climbs kept it before they
// compared brackets: its capacity searched to the end.
type eagerScore struct {
	Value  int
	QPS    float64
	Result serving.Result
}

// eagerClimb is climb on exact rates, as it was written before brackets.
func eagerClimb(cands []int, patience int, eval func(int) eagerScore) (eagerScore, int) {
	best := eval(cands[0])
	evals := 1
	bad := 0
	for _, v := range cands[1:] {
		s := eval(v)
		evals++
		switch {
		case s.QPS > best.QPS*(1+improveTol):
			best = s
			bad = 0
		case s.QPS < best.QPS*(1-degradeTol):
			bad++
			if bad >= patience {
				return best, evals
			}
		default:
			if s.QPS > best.QPS {
				best = s
			}
		}
	}
	return best, evals
}

// eagerRefineUpTo is refineUpTo on exact rates, as it was written before
// brackets.
func eagerRefineUpTo(best eagerScore, max int, eval func(int) eagerScore) (eagerScore, int) {
	evals := 0
	for _, v := range []int{best.Value - best.Value/4, best.Value + best.Value/2} {
		if v <= 0 || v == best.Value || v > max {
			continue
		}
		s := eval(v)
		evals++
		if s.QPS > best.QPS {
			best = s
		}
	}
	return best, evals
}

// stepped is a capacity that closes on its rate v in the steps a test
// chooses: each Narrow moves lo and hi the next step's fraction of the way
// to v, keeping v in [lo, hi), and once the steps run out closes both on v.
type stepped struct {
	v, lo, hi float64
	steps     []float64
	narrowed  int
}

func (c *stepped) Bounds() (float64, float64) { return c.lo, c.hi }

func (c *stepped) Narrow() {
	if c.lo == c.hi {
		panic("sched: narrowed a done capacity")
	}
	c.narrowed++
	if len(c.steps) == 0 {
		c.lo, c.hi = c.v, c.v
		return
	}
	f := c.steps[0]
	c.steps = c.steps[1:]
	c.lo = min(c.v, c.lo+(c.v-c.lo)*f)
	c.hi = max(math.Nextafter(c.v, math.Inf(1)), c.hi-(c.hi-c.v)*f)
}

// closeOn narrows c until it is done and returns its rate.
func closeOn(c capacity) float64 {
	for lo, hi := c.Bounds(); ; lo, hi = c.Bounds() {
		if lo == hi {
			return lo
		}
		c.Narrow()
	}
}

// TestClimbNarrowsOnlyWhatItCompares: a candidate whose ceiling is already
// under the incumbent's degradation floor costs no probe, and of a climb and
// its refine step only the winner, once closed, is done.
func TestClimbNarrowsOnlyWhatItCompares(t *testing.T) {
	halving := make([]float64, 20)
	for i := range halving {
		halving[i] = 0.5
	}
	// Rate and analytic ceiling per batch size: 2 wins, 4 and 8 start under
	// 95% of anything 2's first probe can leave it at, 3 is refine's loser.
	profile := map[int][2]float64{1: {100, 128}, 2: {400, 512}, 3: {300, 512}, 4: {40, 64}, 8: {20, 32}}
	opened := map[int]*stepped{}
	eval := func(v int) Score {
		c := &stepped{v: profile[v][0], hi: profile[v][1], steps: slices.Clone(halving)}
		opened[v] = c
		return Score{Value: v, QPS: c}
	}
	best, n1 := climb([]int{1, 2, 4, 8}, 2, eval)
	best, n2 := refine(best, eval)
	if best.Value != 2 || n1 != 4 || n2 != 1 {
		t.Fatalf("climb chose %d in %d + %d evaluations, want 2 in 4 + 1", best.Value, n1, n2)
	}
	if qps := closeOn(best.QPS); qps != 400 {
		t.Errorf("the winner closed at %v q/s, want 400", qps)
	}
	for v, c := range opened {
		if done := c.lo == c.hi; done != (v == best.Value) {
			t.Errorf("batch %d: done %t after %d probes, want done only for the winner", v, done, c.narrowed)
		}
	}
	for _, v := range []int{4, 8} {
		if n := opened[v].narrowed; n != 0 {
			t.Errorf("batch %d: ceiling %v under the floor, yet %d probes", v, profile[v][1], n)
		}
	}
}

// fuzzProfile gives every value in values a rate, by ops: each pair of bytes
// is an operation and an earlier rate it applies to, so the profile holds
// zeros, exact ties, plateaus, rates at fl(x·1.01) and fl(x·0.95) and one
// ulp either side of each; ops that run out leave random rates.
func fuzzProfile(values []int, ops []byte, rng *rand.Rand) map[int]float64 {
	profile := map[int]float64{}
	var rates []float64
	for i, v := range values {
		op := 12
		var x float64
		if 2*i+1 < len(ops) {
			op = int(ops[2*i]) % 13
			if i > 0 {
				x = rates[int(ops[2*i+1])%i]
			}
		}
		var q float64
		switch op {
		case 0:
			q = 0
		case 1:
			q = x
		case 2:
			q = math.Nextafter(x, math.Inf(1))
		case 3:
			q = math.Nextafter(x, 0)
		case 4:
			q = x * (1 + improveTol)
		case 5:
			q = math.Nextafter(x*(1+improveTol), math.Inf(1))
		case 6:
			q = math.Nextafter(x*(1+improveTol), 0)
		case 7:
			q = x * (1 - degradeTol)
		case 8:
			q = math.Nextafter(x*(1-degradeTol), math.Inf(1))
		case 9:
			q = math.Nextafter(x*(1-degradeTol), 0)
		case 10:
			q = float64(rng.Intn(64)) * 16
		default:
			q = rng.ExpFloat64() * 1000
		}
		profile[v] = q
		rates = append(rates, q)
	}
	return profile
}

// fuzzPath opens a capacity at rate v with a random lower bound (0, as
// before a gate, or under v), a random ceiling above v, and a random number
// of steps that stall, close in fully or move a random fraction.
func fuzzPath(v float64, rng *rand.Rand) *stepped {
	c := &stepped{v: v, hi: v + rng.ExpFloat64()*(v+1)}
	c.hi = max(c.hi, math.Nextafter(v, math.Inf(1)))
	if rng.Intn(2) == 0 {
		c.lo = v * rng.Float64()
	}
	for range rng.Intn(8) {
		switch rng.Intn(4) {
		case 0:
			c.steps = append(c.steps, 0)
		case 1:
			c.steps = append(c.steps, 1)
		default:
			c.steps = append(c.steps, rng.Float64())
		}
	}
	return c
}

// FuzzClimbOnBracketsMatchesExact: a climb and its refine step over
// fuzzer-chosen rates, each candidate's capacity closing on its rate along a
// fuzzer-chosen path, choose what the eager climb on the exact rates chooses,
// at the same rate, in the same number of evaluations.
func FuzzClimbOnBracketsMatchesExact(f *testing.F) {
	f.Add([]byte{}, int64(1), uint8(1), uint16(64), false)
	f.Add([]byte{10, 0, 1, 0, 4, 0, 1, 1, 7, 2, 5, 1, 6, 2, 9, 3}, int64(2), uint8(2), uint16(1024), true)
	f.Add([]byte{0, 0, 0, 0, 10, 0, 1, 2, 1, 2, 8, 3, 4, 4, 3, 5}, int64(3), uint8(0), uint16(1000), false)
	f.Fuzz(func(t *testing.T, ops []byte, seed int64, patience uint8, top uint16, capped bool) {
		cands := powersOfTwo(1 + int(top)%1024)
		limit := math.MaxInt
		if capped {
			limit = cands[len(cands)-1]
		}
		values := slices.Clone(cands)
		for _, c := range cands {
			values = append(values, c-c/4, c+c/2)
		}
		slices.Sort(values)
		values = slices.Compact(values)
		rng := rand.New(rand.NewSource(seed))
		profile := fuzzProfile(values, ops, rng)
		p := 1 + int(patience)%3

		exact := func(v int) eagerScore { return eagerScore{Value: v, QPS: profile[v]} }
		want, wantN1 := eagerClimb(cands, p, exact)
		want, wantN2 := eagerRefineUpTo(want, limit, exact)

		bracketed := func(v int) Score { return Score{Value: v, QPS: fuzzPath(profile[v], rng)} }
		got, n1 := climb(cands, p, bracketed)
		got, n2 := refineUpTo(got, limit, bracketed)
		if qps := closeOn(got.QPS); got.Value != want.Value || qps != want.QPS || n1 != wantN1 || n2 != wantN2 {
			t.Errorf("on brackets: %d at %v q/s in %d + %d evaluations; exact: %d at %v in %d + %d (profile %v)",
				got.Value, qps, n1, n2, want.Value, want.QPS, wantN1, wantN2, profile)
		}
	})
}
