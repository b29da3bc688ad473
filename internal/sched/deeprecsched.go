package sched

import (
	"github.com/deeprecinfra/deeprecsys/internal/serving"
	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Decision is a tuned serving configuration with its measured capacity.
type Decision struct {
	// BatchSize is the chosen per-request batch size.
	BatchSize int
	// GPUThreshold is the chosen offload threshold (0 = CPU only).
	GPUThreshold int
	// QPS is the latency-bounded throughput achieved at this point.
	QPS float64
	// Result is the serving run backing QPS (utilizations, shares, tail).
	Result serving.Result
	// Evaluations counts capacity searches spent reaching the decision.
	Evaluations int
}

// Config returns the serving configuration of the decision.
func (d Decision) Config() serving.Config {
	return serving.Config{BatchSize: d.BatchSize, GPUThreshold: d.GPUThreshold}
}

// MaxTunedBatch caps the batch-size search, matching the paper's explored
// range (up to 1024).
const MaxTunedBatch = 1024

// StaticBaseline evaluates the production baseline the paper compares
// against: a fixed batch size chosen by splitting the largest query evenly
// across all cores, with no accelerator offload (Section V).
func StaticBaseline(e serving.Engine, opts serving.SearchOpts) Decision {
	batch := (workload.MaxQuerySize + e.Cores() - 1) / e.Cores()
	qps, res := serving.MaxQPS(e, serving.Config{BatchSize: batch}, opts)
	return Decision{BatchSize: batch, QPS: qps, Result: res, Evaluations: 1}
}

// TuneBatch runs the batch-size hill climb of DeepRecSched-CPU: starting
// from a unit batch, it doubles the per-request batch size while the
// achievable QPS improves, then refines around the peak. The threshold
// argument is carried through unchanged so the GPU stage can re-tune
// batching decisions are made under the same offload policy.
func TuneBatch(e serving.Engine, threshold int, opts serving.SearchOpts) Decision {
	// One search object for the climb; refine reaches half again past the cap.
	search := serving.NewSearch(e, opts, MaxTunedBatch+MaxTunedBatch/2)
	defer search.Release()
	eval := func(batch int) Score {
		b := search.Bracket(serving.Config{BatchSize: batch, GPUThreshold: threshold})
		return Score{Value: batch, QPS: &b}
	}
	best, n1 := climb(powersOfTwo(MaxTunedBatch), 2, eval)
	best, n2 := refine(best, eval)
	qps, res := best.QPS.(*serving.Bracket).Close()
	return Decision{
		BatchSize:    best.Value,
		GPUThreshold: threshold,
		QPS:          qps,
		Result:       res,
		Evaluations:  n1 + n2,
	}
}

// TuneThreshold runs the accelerator-offload hill climb of
// DeepRecSched-GPU: starting from a unit query-size threshold (every query
// offloaded), it raises the threshold — shifting work back to the CPU pool —
// while the achievable QPS improves, then refines around the peak. The
// batch size for the CPU-side queries is fixed by the caller.
func TuneThreshold(e serving.Engine, batch int, opts serving.SearchOpts) Decision {
	if !e.HasGPU() {
		panic("sched: TuneThreshold on a CPU-only engine")
	}
	search := serving.NewSearch(e, opts, batch)
	defer search.Release()
	eval := func(threshold int) Score {
		b := search.Bracket(serving.Config{BatchSize: batch, GPUThreshold: threshold})
		return Score{Value: threshold, QPS: &b}
	}
	// Thresholds beyond the maximum query size disable offload entirely;
	// include one such point so the climb can discover "keep everything on
	// the CPU" if the accelerator never helps — and one only: refining
	// upward from it would search the same operating point again.
	disabled := workload.MaxQuerySize + 1
	cands := append(powersOfTwo(workload.MaxQuerySize), disabled)
	best, n1 := climb(cands, 2, eval)
	best, n2 := refineUpTo(best, disabled, eval)
	qps, res := best.QPS.(*serving.Bracket).Close()
	return Decision{
		BatchSize:    batch,
		GPUThreshold: best.Value,
		QPS:          qps,
		Result:       res,
		Evaluations:  n1 + n2,
	}
}

// DeepRecSchedCPU tunes the CPU-only configuration (the paper's
// DeepRecSched-CPU): batch-size hill climbing with no offload.
func DeepRecSchedCPU(e serving.Engine, opts serving.SearchOpts) Decision {
	return TuneBatch(e, 0, opts)
}

// DeepRecSchedGPU tunes the accelerated configuration (the paper's
// DeepRecSched-GPU): first the per-request batch size, then the accelerator
// query-size threshold (Section IV-C's two-stage hill climb).
func DeepRecSchedGPU(e serving.Engine, opts serving.SearchOpts) Decision {
	batchStage := TuneBatch(e, 0, opts)
	threshStage := TuneThreshold(e, batchStage.BatchSize, opts)
	threshStage.Evaluations += batchStage.Evaluations
	// Keep the better of the two stages: if offloading never pays (e.g.
	// extremely loose SLA with a saturated accelerator), the CPU-only
	// operating point stands.
	if batchStage.QPS > threshStage.QPS {
		batchStage.Evaluations = threshStage.Evaluations
		return batchStage
	}
	return threshStage
}
