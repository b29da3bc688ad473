package live

import "time"

// Feedback-loop thresholds. The hold band keeps a loop still while the
// measured tail sits comfortably under the target; it moves again only when
// the tail drifts out of the band.
const (
	// headroomFrac: below this fraction of the SLA the tail has enough
	// slack to give back what a breach took — real headroom, not mere
	// compliance, so the two directions cannot oscillate at the boundary.
	headroomFrac = 0.5
	// minTuneSamples gates latency-driven moves until the window carries
	// enough fresh observations to estimate a p95 at all.
	minTuneSamples = 32
	// windowSize is how many of a tenant's latest latencies its window
	// holds: the p95 the loops steer by and Stats reports.
	windowSize = 4096
)

// Signal is what a feedback loop observes once per interval.
type Signal struct {
	// P95 is the windowed online tail latency in seconds, over Samples
	// observations.
	P95     float64
	Samples int
	// Shed is the lifetime count of queries admission control has shed.
	// Under deep saturation few queries complete, so its growth — not the
	// latency window — is the reliable overload signal. Loops that do not
	// watch admission leave it 0.
	Shed uint64
}

// Stepper is DeepRecSched's online feedback idea (paper Section IV-C,
// Fig. 11) as one clock-free state machine: observe the p95 against the
// SLA, move one actuator one rung, let the system settle, look again. The
// two-knob tuner, the degrade ladder and the fleet autoscaler are this
// machine with different actuators plugged in.
//
// Each Tick classifies the interval's Signal:
//
//	breach    (-1)  admission shed queries during the interval, or the
//	                window has enough samples and p95 > SLA
//	headroom  (+1)  enough samples, p95 < headroomFrac·SLA, nothing shed
//	hold      ( 0)  anything else
//
// and hands a non-zero direction to the actuator. When the actuator moved,
// the window is reset and the next Tick is skipped (and resets the window
// once more), so the following decision reads only samples produced at the
// new operating point and every move is attributable to one change. When
// the actuator is pinned at its limit nothing moved, so nothing settles.
//
// The offline hill climb (internal/sched) is deliberately not a Stepper: it
// is a patience-bounded search over capacity-oracle evaluations of
// candidate operating points, not feedback on a measured tail.
type Stepper struct {
	// SLA is the p95 target the loop steers against.
	SLA time.Duration

	lastShed uint64
	settling bool
}

// Tick advances the loop by one interval and returns the direction it
// decided on (0 on a hold or a settle tick). act moves the actuator one
// rung — dir < 0 sheds load, dir > 0 gives it back — and reports whether
// anything moved; reset (optional) empties the latency window.
func (st *Stepper) Tick(sig Signal, act func(dir int) bool, reset func()) int {
	// The shed baseline advances on every tick, settle ticks included. A
	// counter that went backwards (a remote member restarted with fresh
	// counters) reads as no growth, not as a wrapped-around flood.
	shedding := sig.Shed > st.lastShed
	st.lastShed = sig.Shed
	if reset == nil {
		reset = func() {}
	}
	if st.settling {
		st.settling = false
		reset()
		return 0
	}
	sla := st.SLA.Seconds()
	enough := sig.Samples >= minTuneSamples
	dir := 0
	switch {
	case shedding || enough && sig.P95 > sla:
		dir = -1
	case enough && sig.P95 < headroomFrac*sla:
		dir = +1
	}
	if dir != 0 && act(dir) {
		reset()
		st.settling = true
	}
	return dir
}

// Run ticks the loop every interval until stop closes, observing the
// signal afresh each time.
func (st *Stepper) Run(stop <-chan struct{}, every time.Duration, observe func() Signal, act func(dir int) bool, reset func()) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			st.Tick(observe(), act, reset)
		}
	}
}
