package experiments

import (
	"math"
	"sort"
	"testing"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
)

// rooflineByName splits Fig. 1's points into the zoo's, by name, and the
// references'.
func rooflineByName(t *testing.T) (zoo map[string]rooflinePoint, refs []rooflinePoint) {
	t.Helper()
	points := roofline(platform.Skylake())
	n := len(model.Zoo())
	if len(points) != n+2 {
		t.Fatalf("%d roofline points, want the %d zoo models and 2 references", len(points), n)
	}
	zoo = map[string]rooflinePoint{}
	for _, p := range points[:n] {
		zoo[p.name] = p
	}
	return zoo, points[n:]
}

func TestRooflineRecModelsAreMemoryBoundVsReferences(t *testing.T) {
	// Paper Fig. 1: recommendation models tend toward the memory-bound
	// region — the bulk of the zoo sits at lower arithmetic intensity than
	// CNN/RNN workloads, and every embedding-dominated model sits far
	// below them. (The zoo spans a range; DIEN's attention+GRU compute
	// reaches toward the RNN reference, as in the paper's figure.)
	zoo, refs := rooflineByName(t)
	minRef := math.Inf(1)
	for _, r := range refs {
		minRef = math.Min(minRef, r.intensity)
		if !r.computeBound {
			t.Errorf("reference %s should be compute bound on the roofline", r.name)
		}
	}
	var intensities []float64
	for _, p := range zoo {
		if p.intensity <= 0 {
			t.Errorf("%s: non-positive intensity", p.name)
		}
		intensities = append(intensities, p.intensity)
	}
	sort.Float64s(intensities)
	if median := intensities[len(intensities)/2]; median >= minRef {
		t.Errorf("median rec intensity %.1f should be below lowest reference %.1f", median, minRef)
	}
	for _, cfg := range model.Zoo() {
		if cfg.Class == model.EmbeddingDominated {
			if got := zoo[cfg.Name].intensity; got >= minRef/2 {
				t.Errorf("%s (embedding-dominated) intensity %.1f should be far below references (%.1f)",
					cfg.Name, got, minRef)
			}
		}
	}
}

func TestRooflineEmbeddingModelsLowestIntensity(t *testing.T) {
	zoo, _ := rooflineByName(t)
	if zoo["DLRM-RMC1"].intensity >= zoo["DLRM-RMC3"].intensity {
		t.Error("RMC1 must have lower intensity than RMC3")
	}
	if zoo["DLRM-RMC1"].computeBound {
		t.Error("RMC1 must be memory bound")
	}
	// Fig. 1(b): sparse share separates the families.
	if zoo["DLRM-RMC1"].sparse <= zoo["WnD"].sparse {
		t.Error("RMC1 sparse fraction should exceed WnD")
	}
	if zoo["WnD"].sparse > 0.5 {
		t.Errorf("WnD should be dense-dominated, sparse frac = %.2f", zoo["WnD"].sparse)
	}
}

func TestRooflineAttainableRespectsRoofs(t *testing.T) {
	skl := platform.Skylake()
	peak := skl.PeakCoreGFLOPs * float64(skl.Cores)
	for _, p := range roofline(skl) {
		if p.attainable > peak+1e-9 {
			t.Errorf("%s attainable %.1f above peak %.1f", p.name, p.attainable, peak)
		}
		memRoof := p.intensity * skl.PeakDRAMGBs
		if p.attainable > memRoof+1e-9 {
			t.Errorf("%s attainable %.1f above memory roof %.1f", p.name, p.attainable, memRoof)
		}
	}
}

func TestOpSharesMatchTableIIClasses(t *testing.T) {
	// Paper Fig. 3 at batch 64: the dominant operator group must match
	// each model's Table II classification.
	skl := platform.Skylake()
	wantDominant := map[string]string{
		"DLRM-RMC1": "Embedding",
		"DLRM-RMC2": "Embedding",
		"DLRM-RMC3": "FC",
		"NCF":       "FC",
		"WnD":       "FC",
		"MT-WnD":    "FC",
		"DIEN":      "Recurrent",
	}
	for _, cfg := range model.Zoo() {
		shares := opShares(cfg, skl)
		i := dominant(shares)
		got := fig3Ops[i]
		if cfg.Name == "DIN" {
			// The paper describes DIN's time as split across embedding,
			// attention and FC; accept either of the two leaders.
			if got != "Attention" && got != "Embedding" {
				t.Errorf("DIN dominated by %s, want Attention or Embedding", got)
			}
			continue
		}
		if want := wantDominant[cfg.Name]; got != want {
			t.Errorf("%s dominated by %s (%.2f), want %s", cfg.Name, got, shares[i], want)
		}
	}
}

func TestOpSharesSumToOne(t *testing.T) {
	skl := platform.Skylake()
	for _, cfg := range model.Zoo() {
		shares := opShares(cfg, skl)
		if len(shares) != len(fig3Ops) {
			t.Fatalf("%s: %d shares for %d operator groups", cfg.Name, len(shares), len(fig3Ops))
		}
		var sum float64
		for i, s := range shares {
			if s < 0 {
				t.Errorf("%s: negative %s share %v", cfg.Name, fig3Ops[i], s)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", cfg.Name, sum)
		}
	}
}

func TestDominantIsFirstMaximum(t *testing.T) {
	for _, c := range []struct {
		shares []float64
		want   int
	}{
		{[]float64{0.2, 0.5, 0.3}, 1},
		{[]float64{0.2, 0.4, 0.4}, 1},
		{[]float64{0.5, 0.5, 0, 0, 0, 0}, 0},
	} {
		if got := dominant(c.shares); got != c.want {
			t.Errorf("dominant(%v) = %d, want %d", c.shares, got, c.want)
		}
	}
}
