package sched

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/model"
	"github.com/deeprecinfra/deeprecsys/internal/platform"
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// countingEngine stands where a measuring engine (serving.RealEngine) would:
// it counts how often each operating point is priced.
type countingEngine struct {
	serving.Engine
	cpu map[[2]int]int
	gpu map[int]int
}

func newCountingEngine(e serving.Engine) *countingEngine {
	return &countingEngine{Engine: e, cpu: map[[2]int]int{}, gpu: map[int]int{}}
}

func (c *countingEngine) CPURequest(batch, active int) time.Duration {
	c.cpu[[2]int{batch, active}]++
	return c.Engine.CPURequest(batch, active)
}

func (c *countingEngine) GPUQuery(size int) time.Duration {
	c.gpu[size]++
	return c.Engine.GPUQuery(size)
}

// calls returns the engine calls counted so far, and the most any one
// operating point was priced.
func (c *countingEngine) calls() (total, most int) {
	for _, n := range c.cpu {
		total, most = total+n, max(most, n)
	}
	for _, n := range c.gpu {
		total, most = total+n, max(most, n)
	}
	return total, most
}

// visit is one capacity search of a climb and what a fresh search returned.
type visit struct {
	cfg serving.Config
	qps float64
	res serving.Result
}

// freshGPUClimb is DeepRecSchedGPU as the schedulers ran before they shared
// a serving.Search and compared brackets: the eager climb, with a fresh
// serving.MaxQPS — its own stream, utilization sample and service-time
// table — run to the end for every configuration. It returns the decision
// and every search made, in order.
func freshGPUClimb(e serving.Engine, opts serving.SearchOpts) (Decision, []visit) {
	var visits []visit
	eval := func(cfg serving.Config, value int) eagerScore {
		qps, res := serving.MaxQPS(e, cfg, opts)
		visits = append(visits, visit{cfg, qps, res})
		return eagerScore{Value: value, QPS: qps, Result: res}
	}
	byBatch := func(b int) eagerScore { return eval(serving.Config{BatchSize: b}, b) }
	batch, _ := eagerClimb(powersOfTwo(MaxTunedBatch), 2, byBatch)
	batch, _ = eagerRefineUpTo(batch, math.MaxInt, byBatch)
	byThreshold := func(th int) eagerScore { return eval(serving.Config{BatchSize: batch.Value, GPUThreshold: th}, th) }
	disabled := workload.MaxQuerySize + 1
	best, _ := eagerClimb(append(powersOfTwo(workload.MaxQuerySize), disabled), 2, byThreshold)
	best, _ = eagerRefineUpTo(best, disabled, byThreshold)
	d := Decision{BatchSize: batch.Value, GPUThreshold: best.Value, QPS: best.QPS, Result: best.Result, Evaluations: len(visits)}
	if batch.QPS > best.QPS {
		d.GPUThreshold, d.QPS, d.Result = 0, batch.QPS, batch.Result
	}
	return d, visits
}

// TestSearchReuseMatchesFreshSearches: one serving.Search run through every
// (batch, threshold) a zoo model's two-stage climb visits — in climb order,
// reversed, and alternating from both ends — returns for each the rate and
// the Result, to the last latency sample, of a fresh serving.MaxQPS; the
// schedulers, which now build one Search per climb, decide what the fresh
// climb decides; and a Search never prices an operating point twice.
func TestSearchReuseMatchesFreshSearches(t *testing.T) {
	for _, mc := range model.Zoo() {
		for _, cpu := range []*platform.CPU{platform.Skylake(), platform.Broadwell()} {
			name := mc.Name + " on " + cpu.Name
			e := newCountingEngine(serving.NewPlatformEngine(cpu, platform.DefaultGPU(), mc))
			opts := serving.DefaultSearchOpts(workload.DefaultProduction(), mc.SLAMedium)
			opts.Queries, opts.Warmup, opts.RelTol = 400, 50, 0.05
			want, visits := freshGPUClimb(e, opts)
			freshCalls, _ := e.calls()
			if got := DeepRecSchedGPU(e, opts); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DeepRecSchedGPU decides batch %d threshold %d at %v q/s in %d searches, the fresh climb %d / %d / %v in %d",
					name, got.BatchSize, got.GPUThreshold, got.QPS, got.Evaluations, want.BatchSize, want.GPUThreshold, want.QPS, want.Evaluations)
			}
			n := len(visits)
			orders := map[string]func(i int) int{
				"climb order": func(i int) int { return i },
				"reversed":    func(i int) int { return n - 1 - i },
				"interleaved": func(i int) int {
					if i%2 == 0 {
						return i / 2
					}
					return n - 1 - i/2
				},
			}
			for oname, at := range orders {
				e.cpu, e.gpu = map[[2]int]int{}, map[int]int{}
				search := serving.NewSearch(e, opts, MaxTunedBatch+MaxTunedBatch/2)
				for i := 0; i < n; i++ {
					v := visits[at(i)]
					if qps, res := search.MaxQPS(v.cfg); qps != v.qps || !reflect.DeepEqual(res, v.res) {
						t.Errorf("%s, %s: %+v gives %v q/s on the shared search, %v q/s fresh (or the Results differ)", name, oname, v.cfg, qps, v.qps)
					}
				}
				search.Release()
				if calls, most := e.calls(); most != 1 || calls >= freshCalls {
					t.Errorf("%s, %s: %d engine calls, %d fresh; one operating point priced %d times", name, oname, calls, freshCalls, most)
				}
			}
		}
	}
}

// neverPays is an accelerator so slow that one offloaded query fails the
// drain check of every probe.
type neverPays struct{ serving.Engine }

func (neverPays) GPUQuery(int) time.Duration { return time.Hour }

// TestTuneThresholdDoesNotRefinePastDisabled: when offloading never pays the
// threshold climb settles on "offload disabled" (workload.MaxQuerySize+1). No
// query is larger, so the refine step's upper midpoint, 1501, is the same
// operating point and must not cost a capacity search.
func TestTuneThresholdDoesNotRefinePastDisabled(t *testing.T) {
	e := neverPays{engineFor(t, "DLRM-RMC1", true)}
	opts := schedOpts(100 * time.Millisecond)
	cpuOnly, _ := serving.MaxQPS(e, serving.Config{BatchSize: 256}, opts)
	d := TuneThreshold(e, 256, opts)
	// Ten powers of two, 1000, 1001, and the lower midpoint 751.
	if d.BatchSize != 256 || d.GPUThreshold != workload.MaxQuerySize+1 || d.QPS != cpuOnly || d.QPS == 0 || d.Evaluations != 13 {
		t.Errorf("batch %d threshold %d at %v q/s in %d searches, want 256 / %d / %v in 13",
			d.BatchSize, d.GPUThreshold, d.QPS, d.Evaluations, workload.MaxQuerySize+1, cpuOnly)
	}
}
