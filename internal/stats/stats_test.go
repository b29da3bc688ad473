package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{75, 7.75},
	}
	for _, c := range cases {
		got := Percentile(samples, c.p)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	if got := Percentile([]float64{42}, 95); got != 42 {
		t.Errorf("Percentile of single sample = %v, want 42", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	samples := []float64{3, 1, 2}
	Percentile(samples, 50)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Errorf("Percentile mutated input: %v", samples)
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty sample set")
		}
	}()
	Percentile(nil, 50)
}

func TestPercentilePanicsOnRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on p out of range")
		}
	}()
	Percentile([]float64{1}, 101)
}

// Property: any percentile lies within [min, max] of the samples, and
// percentiles are monotonically non-decreasing in p.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			samples = append(samples, v)
		}
		if len(samples) == 0 {
			return true
		}
		lo := float64(p1 % 101)
		hi := float64(p2 % 101)
		if lo > hi {
			lo, hi = hi, lo
		}
		a := Percentile(samples, lo)
		b := Percentile(samples, hi)
		min, max := samples[0], samples[0]
		for _, v := range samples {
			min = math.Min(min, v)
			max = math.Max(max, v)
		}
		return a <= b && a >= min && b <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 {
		t.Errorf("Count = %d, want 8", s.Count)
	}
	if math.Abs(s.Mean-5) > 1e-9 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Stddev-2) > 1e-9 {
		t.Errorf("Stddev = %v, want 2", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 {
		t.Errorf("empty Summarize Count = %d", s.Count)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("GeoMean = %v, want 4", got)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive value")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
}

func TestCDFSelfDistanceIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = rng.ExpFloat64()
	}
	c := NewCDF(samples)
	if e := c.MaxQuantileRelError(c, []float64{0.5, 0.95, 0.99}); e != 0 {
		t.Errorf("MaxQuantileRelError(self) = %v, want 0", e)
	}
}

// TestSelectPercentileMatchesPercentile: selecting the two order statistics
// gives Percentile's bits on the shapes a selection gets wrong first — one
// and two samples, runs of ties, signed zeros, already sorted and reversed
// input — and on random sizes around the 350 measured queries of a capacity
// probe.
func TestSelectPercentileMatchesPercentile(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		{42}, {negZero}, {2, 1}, {1, 1}, {3, 3, 3, 3, 3},
		{negZero, 0}, {0, negZero}, {negZero, negZero, 1}, {0, negZero, 0, -1, 2},
		{5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5},
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{20, 21, 40, 41, 100, 349, 350, 351, 1000} {
		ramp, exp, ties := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range ramp {
			ramp[i] = float64(i)
			exp[i] = rng.ExpFloat64() * 1e-3
			ties[i] = float64(rng.Intn(4)) * 0.25
		}
		rev := slices.Clone(ramp)
		slices.Reverse(rev)
		// A ramp rotated by one defeats the median-of-three pivot and
		// takes the sorting fallback.
		rot := append(slices.Clone(ramp[1:]), ramp[0])
		cases = append(cases, ramp, rev, rot, exp, ties)
	}
	for i := 0; i < 200; i++ {
		x := make([]float64, 300+rng.Intn(101))
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		cases = append(cases, x)
	}
	for _, x := range cases {
		// Where -0 and +0 tie at a selected rank neither sort nor selection
		// orders them, so a zero result is held by value, not by sign.
		zero := func(neg bool) bool {
			return slices.ContainsFunc(x, func(v float64) bool { return v == 0 && math.Signbit(v) == neg })
		}
		bothZeros := zero(true) && zero(false)
		for _, p := range []float64{0, 50, 95, 99, 100} {
			want := Percentile(x, p)
			got := SelectPercentile(slices.Clone(x), p)
			if math.Float64bits(got) != math.Float64bits(want) && !(bothZeros && got == 0 && want == 0) {
				t.Fatalf("n=%d p%v: selected %v, Percentile %v (%v)", len(x), p, got, want, x)
			}
		}
	}
}
