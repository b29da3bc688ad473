package experiments

import (
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/stats"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// fleetTestOpts sizes a small offline fleet of n nodes: four windows of 250
// queries per node after a 50-query warmup.
func fleetTestOpts(n int) Options {
	return Options{
		Warmup:           100, // serveFleet warms each window up on half
		Seed:             11,
		FleetNodes:       n,
		FleetWindows:     4,
		QueriesPerWindow: 250,
	}
}

func rmc1Skylake() serving.Engine {
	eng, _ := engineFor("DLRM-RMC1", platform.Skylake(), nil)
	return eng
}

func sameLatencies(t *testing.T, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("node %d: sample counts differ (%d vs %d)", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("node %d sample %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestServeFleetSubsetTracksFleet(t *testing.T) {
	// Paper Fig. 7: tail latencies measured on a handful of machines track
	// the datacenter-wide distribution to within ~10%.
	opt := fleetTestOpts(40)
	traffic := &workload.DiurnalArrivals{BaseQPS: 40 * 2000, Amplitude: 0.25, Period: 24 * time.Hour}
	lats := opt.serveFleet(rmc1Skylake(), serving.Config{BatchSize: 256}, traffic)

	all := stats.NewCDF(concat(lats))
	subset := stats.NewCDF(concat(lats[:4]))
	rel := all.MaxQuantileRelError(subset, []float64{0.5, 0.75, 0.9, 0.95})
	if rel > 0.15 {
		t.Errorf("subset quantile error %.1f%%, want <= 15%%", rel*100)
	}
}

func TestServeFleetPaired(t *testing.T) {
	// Same seed and config must reproduce identical fleet results.
	opt := fleetTestOpts(5)
	traffic := &workload.DiurnalArrivals{BaseQPS: 5 * 1500, Amplitude: 0.2, Period: 24 * time.Hour}
	a := opt.serveFleet(rmc1Skylake(), serving.Config{BatchSize: 128}, traffic)
	b := opt.serveFleet(rmc1Skylake(), serving.Config{BatchSize: 128}, traffic)
	sameLatencies(t, a, b)
}

func TestServeFleetTunedBatchCutsTails(t *testing.T) {
	// Paper Fig. 13: switching the fleet from the fixed production batch
	// size to the tuned one cuts p95/p99 tail latency. The effect appears
	// at production-level utilization, where the static configuration's
	// per-item inefficiency inflates queueing delay.
	opt := fleetTestOpts(8)
	traffic := &workload.DiurnalArrivals{BaseQPS: 8 * 4800, Amplitude: 0.15, Period: 24 * time.Hour}
	eng := rmc1Skylake()
	// Static baseline batch on Skylake is 25; the tuned batch for the
	// embedding-dominated RMC1 is large.
	a := stats.Summarize(concat(opt.serveFleet(eng, serving.Config{BatchSize: 25}, traffic)))
	b := stats.Summarize(concat(opt.serveFleet(eng, serving.Config{BatchSize: 512}, traffic)))
	if r := a.P95 / b.P95; r <= 1 {
		t.Errorf("p95 reduction %.2fx, want > 1", r)
	}
	if r := a.P99 / b.P99; r <= 1 {
		t.Errorf("p99 reduction %.2fx, want > 1", r)
	}
}

func TestServeFleetParallelMatchesSerial(t *testing.T) {
	opt := fleetTestOpts(5)
	opt.FleetWindows, opt.QueriesPerWindow, opt.Warmup, opt.Seed = 3, 200, 40, 5
	traffic := &workload.DiurnalArrivals{BaseQPS: 5 * 1500, Amplitude: 0.2, Period: 24 * time.Hour}
	opt.Workers = 1
	serial := opt.serveFleet(rmc1Skylake(), serving.Config{BatchSize: 128}, traffic)
	opt.Workers = 8
	parallel := opt.serveFleet(rmc1Skylake(), serving.Config{BatchSize: 128}, traffic)
	sameLatencies(t, serial, parallel)
}

// TestFig7SubsetSize pins Fig. 7's subset of k = min(max(FleetNodes/10, 2),
// FleetNodes) nodes: Fig7's first row (DLRM-RMC1 on Skylake) must report
// the error of exactly the first k nodes' latencies against the fleet's,
// from a fleet of one (k is the whole fleet, not two nodes it lacks) up to
// one where a tenth of the fleet exceeds two.
func TestFig7SubsetSize(t *testing.T) {
	for _, tc := range []struct{ nodes, k int }{{1, 1}, {2, 2}, {3, 2}, {30, 3}} {
		opt := fleetTestOpts(tc.nodes)
		_, data := Fig7(opt)
		traffic := &workload.DiurnalArrivals{BaseQPS: 2500 * float64(tc.nodes), Amplitude: 0.2, Period: 24 * time.Hour}
		lats := opt.serveFleet(rmc1Skylake(), serving.Config{BatchSize: 128}, traffic)
		want := stats.NewCDF(concat(lats)).MaxQuantileRelError(stats.NewCDF(concat(lats[:tc.k])), []float64{0.5, 0.75, 0.9, 0.95})
		if got := data[0].SubsetQuantileErr; got != want {
			t.Errorf("%d nodes: subset error %v, want %v (the first %d nodes)", tc.nodes, got, want, tc.k)
		}
	}
}
