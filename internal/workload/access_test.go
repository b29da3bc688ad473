package workload

import (
	"math/rand"
	"testing"
)

// Satellite requirement: under Zipf skew with s > 1, the top 1% of rows
// must absorb the overwhelming majority of draws — the hot-set property the
// embedding cache tier depends on.
func TestZipfTopOnePercentMass(t *testing.T) {
	const (
		rows  = 100000
		draws = 200000
	)
	for _, s := range []float64{1.2, 1.5} {
		src := ZipfAccess{S: s, V: 1}.Source(rand.New(rand.NewSource(17)), rows)
		hot := 0
		for k := 0; k < draws; k++ {
			i := src.Next()
			if i < 0 || i >= rows {
				t.Fatalf("s=%g: draw %d outside [0,%d)", s, i, rows)
			}
			if i < rows/100 {
				hot++
			}
		}
		frac := float64(hot) / draws
		if frac < 0.75 {
			t.Errorf("s=%g: top-1%% rows got %.1f%% of draws, want >= 75%%", s, 100*frac)
		}
	}

	// Uniform is the control: top 1% of rows gets about 1% of draws.
	src := UniformAccess{}.Source(rand.New(rand.NewSource(17)), rows)
	hot := 0
	for k := 0; k < draws; k++ {
		if src.Next() < rows/100 {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac > 0.05 {
		t.Errorf("uniform: top-1%% rows got %.1f%% of draws, want about 1%%", 100*frac)
	}
}

// Satellite requirement: fixed seed, fixed draw sequence.
func TestAccessDeterminism(t *testing.T) {
	for _, dist := range []IndexDist{UniformAccess{}, ZipfAccess{S: 1.2, V: 1}, ZipfAccess{S: 2, V: 3}} {
		a := dist.Source(rand.New(rand.NewSource(23)), 5000)
		b := dist.Source(rand.New(rand.NewSource(23)), 5000)
		for k := 0; k < 10000; k++ {
			va, vb := a.Next(), b.Next()
			if va != vb {
				t.Fatalf("%s: draw %d diverged: %d vs %d", dist.Name(), k, va, vb)
			}
		}
		c := dist.Source(rand.New(rand.NewSource(24)), 5000)
		same := true
		for k := 0; k < 100; k++ {
			if a.Next() != c.Next() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical draws", dist.Name())
		}
	}
}

// The unwrapped uniform source is a literal rng.Intn per lookup (the cache
// benchmarks draw through it; the live lanes serve uniform access by their
// own bulk fill instead).
func TestUniformMatchesIntnStream(t *testing.T) {
	src := UniformAccess{}.Source(rand.New(rand.NewSource(9)), 777)
	ref := rand.New(rand.NewSource(9))
	for k := 0; k < 1000; k++ {
		if got, want := src.Next(), ref.Intn(777); got != want {
			t.Fatalf("draw %d: %d vs rng.Intn %d", k, got, want)
		}
	}
}

func TestParseAccess(t *testing.T) {
	cases := map[string]string{
		"uniform":      "uniform",
		"zipf":         "zipf:1.2",
		"zipf:1.5":     "zipf:1.5",
		"zipf:1.3,2":   "zipf:1.3,2",
		"zipf:2.0,1.0": "zipf:2",
	}
	for in, wantName := range cases {
		d, err := ParseAccess(in)
		if err != nil {
			t.Errorf("ParseAccess(%q): %v", in, err)
			continue
		}
		if d.Name() != wantName {
			t.Errorf("ParseAccess(%q).Name() = %q, want %q", in, d.Name(), wantName)
		}
	}
	for _, in := range []string{"", "pareto", "uniform:3", "zipf:1", "zipf:0.9", "zipf:1.2,0.5", "zipf:x", "zipf:1.2,y"} {
		if _, err := ParseAccess(in); err == nil {
			t.Errorf("ParseAccess(%q) accepted invalid spec", in)
		}
	}
}
