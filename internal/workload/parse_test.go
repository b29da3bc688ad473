package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestParseDist(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"production", "production"},
		{"lognormal", DefaultLogNormal().Name()},
		{"lognormal:4.0,0.9", "lognormal(4.00,0.90)"},
		{"normal", "normal(100,40)"},
		{"normal:200,10", "normal(200,10)"},
		{"fixed:64", "fixed(64)"},
	}
	for _, c := range cases {
		d, err := ParseDist(c.spec)
		if err != nil {
			t.Fatalf("ParseDist(%q): %v", c.spec, err)
		}
		if d.Name() != c.want {
			t.Errorf("ParseDist(%q).Name() = %q, want %q", c.spec, d.Name(), c.want)
		}
	}
}

func TestParseDistErrors(t *testing.T) {
	for _, spec := range []string{
		"", "zipf", "fixed", "fixed:0", "fixed:99999", "fixed:abc",
		"lognormal:1", "lognormal:1,0", "normal:1", "normal:1,-2",
		"production:1",
	} {
		if _, err := ParseDist(spec); err == nil {
			t.Errorf("ParseDist(%q) accepted", spec)
		}
	}
}

func TestParseArrivals(t *testing.T) {
	p, err := ParseArrivals("poisson", 100)
	if err != nil || !strings.HasPrefix(p.Name(), "poisson") {
		t.Fatalf("poisson: %v %v", p, err)
	}
	u, err := ParseArrivals("uniform", 100)
	if err != nil || !strings.HasPrefix(u.Name(), "uniform") {
		t.Fatalf("uniform: %v %v", u, err)
	}
	if _, err := ParseArrivals("poisson", 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := ParseArrivals("burst", 10); err == nil {
		t.Error("unknown process accepted")
	}
}

func TestEmpiricalSamplesPopulation(t *testing.T) {
	e, err := NewEmpirical([]int{5, 10, 15})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := e.Sample(rng)
		if v != 5 && v != 10 && v != 15 {
			t.Fatalf("sample %d outside population", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("200 draws hit %d of 3 population values", len(seen))
	}
	if _, err := NewEmpirical(nil); err == nil {
		t.Error("empty population accepted")
	}
	if _, err := NewEmpirical([]int{0}); err == nil {
		t.Error("invalid size accepted")
	}
	if _, err := NewEmpirical([]int{MaxQuerySize + 1}); err == nil {
		t.Error("oversized entry accepted")
	}
}

func TestEmpiricalFromTrace(t *testing.T) {
	e, err := EmpiricalFromTrace([]Query{{Size: 7}, {Size: 9}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		if v := e.Sample(rng); v != 7 && v != 9 {
			t.Fatalf("sample %d outside trace population", v)
		}
	}
}

func TestGenerateSpec(t *testing.T) {
	qs, err := GenerateSpec("fixed:10", "uniform", 100, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 {
		t.Fatalf("got %d queries", len(qs))
	}
	for i, q := range qs {
		if q.Size != 10 {
			t.Errorf("query %d size %d", i, q.Size)
		}
		if i > 0 && q.Arrival-qs[i-1].Arrival != 10*time.Millisecond {
			t.Errorf("gap %v, want 10ms", q.Arrival-qs[i-1].Arrival)
		}
	}
	for _, bad := range []func() ([]Query, error){
		func() ([]Query, error) { return GenerateSpec("fixed:10", "uniform", 100, 0, 1) },
		func() ([]Query, error) { return GenerateSpec("fixed:10", "uniform", 100, -3, 1) },
		func() ([]Query, error) { return GenerateSpec("zipf", "uniform", 100, 5, 1) },
		func() ([]Query, error) { return GenerateSpec("fixed:10", "burst", 100, 5, 1) },
		func() ([]Query, error) { return GenerateSpec("fixed:10", "poisson", 0, 5, 1) },
	} {
		if _, err := bad(); err == nil {
			t.Error("invalid GenerateSpec call accepted")
		}
	}
}

// NewUniformStream must realize NewGenerator(Uniform{rate}, ...) exactly,
// the same contract PoissonStream has with Poisson arrivals.
func TestUniformStreamMatchesGenerator(t *testing.T) {
	const n, seed, rate = 200, 5, 750.0
	want := NewGenerator(Uniform{RatePerSec: rate}, DefaultProduction(), seed).Take(n)
	got := NewUniformStream(DefaultProduction(), n, seed).QueriesAt(rate)
	for i := range want {
		if want[i].Size != got[i].Size || want[i].Arrival != got[i].Arrival {
			t.Fatalf("query %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// ParseDist must agree with loadgen's historical standalone parser for the specs
// loadgen documented, so existing invocations keep producing identical
// traces.
func TestParseDistMatchesLoadgenDefaults(t *testing.T) {
	gen := func(d SizeDist) []int {
		rng := rand.New(rand.NewSource(9))
		out := make([]int, 50)
		for i := range out {
			out[i] = d.Sample(rng)
		}
		return out
	}
	prod, _ := ParseDist("production")
	want := gen(DefaultProduction())
	got := gen(prod)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("production draw %d: %d != %d", i, got[i], want[i])
		}
	}
}
