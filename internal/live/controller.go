package live

import "github.com/deeprecinfra/deeprecsys/internal/workload"

// offThreshold represents "no offload" on the threshold ladder: one above
// the largest possible query. The walk leaves and re-enters offload through
// this rung, stored as 0 in the knob.
const offThreshold = workload.MaxQuerySize + 1

// controllerFor is the online analogue of DeepRecSched's two-knob hill climb
// (paper Section IV): instead of probing candidate operating points against
// a capacity-search oracle, it walks the same power-of-two ladders — the
// per-request batch size and, when the accelerator lane is present, the
// query-size offload threshold — against the *measured* p95 of live
// traffic. Per-request batch size trades batch-level efficiency against
// request-level parallelism; the threshold trades CPU-pool load against
// accelerator occupancy. The controller seeks the least aggressive
// configuration whose p95 holds the SLA: when the tail breaches the target
// it sheds load (finer batches, more of the heavy tail offloaded), and when
// the tail has ample headroom it relaxes (coarser batches, offload walked
// back toward the CPU). It is a Stepper (which owns the decision rule and
// the settle/reset discipline) whose actuator moves one knob per decision,
// in strict alternation, so every window of samples is attributable to a
// single change. It watches latency only: admission sheds are the
// degrader's signal.
//
// On a multi-tenant service one controller runs per AutoTune tenant,
// walking that tenant's own knobs against that tenant's own measured p95;
// the lanes are shared, so a tenant's controller observes its neighbors
// only through its own tail (the interference channel tenant-aware fleet
// placement exists to manage).
func (s *Service) controllerFor(t *tenant) {
	defer s.bgWG.Done()
	moveBatch := true // batch is the paper's primary knob; start there
	st := Stepper{SLA: t.sla}
	st.Run(s.bgStop, s.cfg.TuneInterval,
		func() Signal {
			h := t.win.Snapshot()
			return Signal{P95: h.Percentile(95), Samples: h.Count()}
		},
		func(dir int) bool {
			// Move the preferred knob; when it is already at its limit,
			// give the other knob the turn instead of holding.
			moved := false
			for try := 0; try < 2 && !moved; try++ {
				if moveBatch || s.acc == nil {
					moved = s.stepBatch(t, dir)
				} else {
					moved = s.stepThreshold(t, dir)
				}
				if s.acc != nil {
					moveBatch = !moveBatch
				}
			}
			if moved {
				t.retunes.Add(1)
			}
			return moved
		},
		t.win.Reset)
}

// stepBatch walks the batch-size knob one power-of-two rung: down for
// request-level parallelism when the tail breached, up for batch efficiency
// under headroom. It reports whether the knob moved.
func (s *Service) stepBatch(t *tenant, dir int) bool {
	cur := int(t.batch.Load())
	next := cur
	switch {
	case dir < 0 && cur > 1:
		next = cur / 2
	case dir > 0 && cur < MaxBatchSize:
		next = cur * 2
		if next > MaxBatchSize {
			next = MaxBatchSize
		}
	}
	if next == cur {
		return false
	}
	t.batch.Store(int64(next))
	return true
}

// stepThreshold walks the offload knob one power-of-two rung. Under a
// breached tail the heavy end of the size distribution moves to the
// accelerator (threshold halves), relieving the loaded CPU pool — unless
// the device's streams are already saturated, in which case offloading more
// would only deepen the device queue and the step inverts, shifting work
// back to the cores. With ample headroom the threshold rises: the CPU pool
// reclaims the tail, walking toward "no offload" exactly as the paper's
// climb raises the threshold while throughput holds. It reports whether the
// knob moved. Callers guarantee the accelerator lane is present.
func (s *Service) stepThreshold(t *tenant, dir int) bool {
	cur := int(t.thresh.Load())
	if cur == 0 {
		cur = offThreshold
	}
	if dir < 0 && s.acc.saturated() {
		dir = +1
	}
	next := cur
	switch {
	case dir < 0 && cur > 1:
		next = cur / 2
	case dir > 0 && cur <= workload.MaxQuerySize:
		next = cur * 2
		if next > workload.MaxQuerySize {
			next = offThreshold
		}
	}
	if next == cur {
		return false
	}
	if next >= offThreshold {
		next = 0 // off: no query can reach it
	}
	t.thresh.Store(int64(next))
	return true
}
