package stats

import (
	"math"
	"math/rand"
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

func TestCDFAtAndQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(2); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v, want 1", got)
	}
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

// Property: CDF.At is monotonically non-decreasing and bounded in [0,1].
func TestCDFMonotonicProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 10
	}
	c := NewCDF(samples)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		ax, ay := c.At(x), c.At(y)
		return ax <= ay && ax >= 0 && ay <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if n := len(r.Samples()); n != 100 {
		t.Fatalf("len(Samples) = %d, want 100", n)
	}
	if got := r.Summary().P95; math.Abs(got-95.05) > 1e-9 {
		t.Errorf("P95 = %v, want 95.05", got)
	}
}
