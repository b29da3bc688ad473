package deeprecsys_test

import (
	"math"
	"testing"

	deeprecsys "github.com/deeprecinfra/deeprecsys"
	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// realExecGolden pins the end-to-end real-execution serving path — feature
// generation, embedding gathers, the full neural forward pass, and top-N
// ranking — for every zoo model at default settings (64 candidates, top 5,
// seed 7). The CTR values are exact float32 bit patterns captured before
// the blocked/arena compute-stack rewrite (PR 5), so any kernel or
// refactoring change that perturbs a single ULP anywhere in the stack fails
// here. Items and order must match exactly too, which additionally pins the
// ranking tie-break contract.
var realExecGolden = map[string][]struct {
	item int
	ctr  uint32
}{
	"DLRM-RMC1": {{24, 0x3f141a42}, {14, 0x3f0d1311}, {29, 0x3f0b67cb}, {19, 0x3f0a0f7f}, {52, 0x3f0950d5}},
	"DLRM-RMC2": {{13, 0x3f19753b}, {40, 0x3f0ee993}, {29, 0x3f0d24e9}, {7, 0x3f0c0095}, {34, 0x3f0a1615}},
	"DLRM-RMC3": {{37, 0x3f06e055}, {59, 0x3f05d910}, {53, 0x3f0483a2}, {19, 0x3f02e622}, {52, 0x3f02d805}},
	"NCF":       {{23, 0x3effdb60}, {38, 0x3effc973}, {17, 0x3effbb27}, {12, 0x3efef51f}, {3, 0x3efeef97}},
	"WnD":       {{29, 0x3f38482f}, {5, 0x3f2f5a1d}, {7, 0x3f2f30b8}, {16, 0x3f2d7436}, {35, 0x3f2cdb81}},
	"MT-WnD":    {{20, 0x3f1969e2}, {44, 0x3f17aa7f}, {45, 0x3f1787d7}, {19, 0x3f155a9f}, {53, 0x3f128e72}},
	"DIN":       {{10, 0x3f03659f}, {14, 0x3f035e4e}, {54, 0x3f033998}, {63, 0x3f0244de}, {36, 0x3f01fdee}},
	"DIEN":      {{3, 0x3f028545}, {60, 0x3f025ae9}, {36, 0x3f01acf6}, {24, 0x3f0141d4}, {49, 0x3f010de5}},
}

// pinBackend forces a kernel backend for one test, restoring the previous
// one afterward. The bit-exact golden pins Scalar (its CTR bits are a
// scalar-tier contract); the SIMD golden pins each vector backend in turn
// and skips cleanly on hosts (or under DEEPRECSYS_BACKEND=scalar) where
// there is none.
func pinBackend(t *testing.T, b tensor.Backend) {
	t.Helper()
	prev := tensor.ActiveBackend()
	if err := tensor.SetBackend(b); err != nil {
		t.Skipf("backend %v unavailable: %v", b, err)
	}
	t.Cleanup(func() { tensor.SetBackend(prev) })
}

func TestRealExecutionRecommendGolden(t *testing.T) {
	pinBackend(t, tensor.Scalar)
	for _, name := range deeprecsys.ModelNames() {
		want, ok := realExecGolden[name]
		if !ok {
			t.Errorf("%s: zoo model missing a golden entry", name)
			continue
		}
		sys, err := deeprecsys.NewSystem(name, "skylake", deeprecsys.WithEngine(deeprecsys.RealExecution))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := sys.Recommend(64, 5, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: got %d recommendations, want %d", name, len(recs), len(want))
		}
		for i, r := range recs {
			if r.Item != want[i].item || math.Float32bits(r.CTR) != want[i].ctr {
				t.Errorf("%s[%d]: got item %d ctr 0x%08x, want item %d ctr 0x%08x",
					name, i, r.Item, math.Float32bits(r.CTR), want[i].item, want[i].ctr)
			}
		}
	}
}

// simdGoldenRelTol bounds each recommendation's CTR drift between a vector
// backend and scalar. The FMA/multi-accumulator reordering perturbs the
// forward pass by single ULPs (observed drift on the pinned seed is exactly
// one ULP, ~1.2e-7 relative); the bound leaves two orders of magnitude of
// headroom while still catching any real kernel defect, which shows up as
// drift many orders larger.
const simdGoldenRelTol = 1e-5

// TestRealExecutionRecommendGoldenSIMD is the vector tier's re-pinned
// golden: under every vector backend this process can run, the same
// end-to-end Recommend runs (all 8 zoo models, 64 candidates, top 5, seed 7)
// must produce the exact item sets in the exact order of the scalar golden,
// with each CTR within simdGoldenRelTol of the scalar-tier bit pattern.
// Skipped (not passed vacuously) on hosts without one.
func TestRealExecutionRecommendGoldenSIMD(t *testing.T) {
	vector := tensor.Backends()[1:]
	if len(vector) == 0 {
		t.Skip("no vector backend available")
	}
	for _, bk := range vector {
		pinBackend(t, bk)
		maxDrift := 0.0
		for _, name := range deeprecsys.ModelNames() {
			want, ok := realExecGolden[name]
			if !ok {
				t.Errorf("%s: zoo model missing a golden entry", name)
				continue
			}
			sys, err := deeprecsys.NewSystem(name, "skylake", deeprecsys.WithEngine(deeprecsys.RealExecution))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			recs, err := sys.Recommend(64, 5, 7)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(recs) != len(want) {
				t.Fatalf("%s: got %d recommendations, want %d", name, len(recs), len(want))
			}
			for i, r := range recs {
				if r.Item != want[i].item {
					t.Errorf("%v %s[%d]: got item %d, want item %d (recommendation order must be exact)",
						bk, name, i, r.Item, want[i].item)
					continue
				}
				ref := float64(math.Float32frombits(want[i].ctr))
				drift := math.Abs(float64(r.CTR)-ref) / ref
				if drift > simdGoldenRelTol {
					t.Errorf("%v %s[%d]: ctr 0x%08x drifts %.3g relative from golden 0x%08x (tol %g)",
						bk, name, i, math.Float32bits(r.CTR), drift, want[i].ctr, simdGoldenRelTol)
				}
				if drift > maxDrift {
					maxDrift = drift
				}
			}
		}
		t.Logf("max CTR drift %v vs scalar golden: %.3g relative (tol %g)", bk, maxDrift, simdGoldenRelTol)
	}
}
