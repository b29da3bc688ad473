package live

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// ErrOverloaded is returned by Submit when admission control sheds the
// query: the service is saturated and the policy chose to refuse new work
// rather than let the backlog (and the tail latency of every admitted
// query) grow without bound. Callers should treat it as a retryable
// load-shedding signal, not a failure of the service.
var ErrOverloaded = errors.New("live: overloaded: admission control shed the query")

// ErrShutdown is returned by Submit for queries that were queued by
// admission control but never started executing when Close began. It is
// distinct from ErrClosed (submitted after Close) so callers can tell
// "never accepted" from "accepted but abandoned at shutdown".
var ErrShutdown = errors.New("live: service closed before the query started executing")

// AdmissionPolicy selects what happens to a query that arrives while the
// service is already executing its configured concurrency of queries.
type AdmissionPolicy int

const (
	// AdmitAll disables admission control: every query proceeds straight
	// to an executor lane (the pre-admission behavior; backpressure comes
	// only from the lane queues).
	AdmitAll AdmissionPolicy = iota
	// AdmitReject sheds a query immediately with ErrOverloaded when all
	// execution slots are busy.
	AdmitReject
	// AdmitQueue parks the query in a bounded FIFO admission queue; when
	// the queue is full the new query is shed with ErrOverloaded.
	AdmitQueue
	// AdmitShedOldest parks the query in the bounded FIFO queue; when the
	// queue is full the oldest waiting query is shed (its Submit returns
	// ErrOverloaded) to make room for the newest — freshest-first service,
	// the right policy when queries carry deadlines.
	AdmitShedOldest
)

// String returns the policy's spec-grammar name.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitAll:
		return "none"
	case AdmitReject:
		return "reject"
	case AdmitQueue:
		return "queue"
	case AdmitShedOldest:
		return "shed-oldest"
	default:
		return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
	}
}

// AdmissionConfig bounds the work a Service accepts. The zero value
// disables admission control.
type AdmissionConfig struct {
	// Policy is the full-queue behavior.
	Policy AdmissionPolicy
	// Concurrency is the maximum number of queries executing in the lanes
	// at once (default 2× Workers). Arrivals beyond it hit the Policy.
	Concurrency int
	// Depth bounds the admission queue for AdmitQueue / AdmitShedOldest
	// (default 4× Concurrency; ignored for AdmitReject).
	Depth int
}

// ParseAdmission parses an admission spec as accepted by
// `deeprecsys serve -admission`:
//
//	none                 admission control off (the default)
//	reject               shed new queries at saturation
//	queue:<depth>        bounded FIFO; shed new queries when full
//	shed-oldest[:<depth>] bounded FIFO; shed the oldest waiter when full
//	                     (depth defaults to 4× the concurrency limit)
func ParseAdmission(spec string) (AdmissionConfig, error) {
	if spec == "" {
		spec = "none"
	}
	return workload.ParseCall("live", "admission policy", spec, admissionForms)
}

var admissionForms = []workload.Form[AdmissionConfig]{
	workload.NewForm("none", admissionForm(AdmitAll)),
	workload.NewForm("reject", admissionForm(AdmitReject)),
	workload.NewForm("queue:<depth>", admissionForm(AdmitQueue), 1),
	workload.NewForm("shed-oldest[:<depth>]", admissionForm(AdmitShedOldest), 0, 1),
}

// admissionForm builds policy p's config from its optional queue depth.
func admissionForm(p AdmissionPolicy) func([]string) (AdmissionConfig, error) {
	return func(args []string) (AdmissionConfig, error) {
		cfg := AdmissionConfig{Policy: p}
		return cfg, workload.Args(args, workload.Int(&cfg.Depth, 1))
	}
}

// admWaiter is one query parked in the admission queue. Its Submit
// goroutine blocks on ready; the gate delivers exactly one verdict: nil
// (admitted — an execution slot was transferred to it) or a terminal error
// (shed, shut down, or replica failure).
type admWaiter struct {
	ready chan error
}

// admission is the gate in front of the executor lanes: at most limit
// queries execute concurrently, and the policy decides the fate of
// arrivals beyond that. It exists per Service (one per fleet replica), so
// a fleet sheds load at each replica's own saturation point.
type admission struct {
	policy AdmissionPolicy
	limit  int
	depth  int

	mu     sync.Mutex
	inExec int
	queue  []*admWaiter
	closed bool
	errAt  error // verdict delivered to waiters at close/fail time

	// shed / evicted are reported back through the Service's counters;
	// the gate itself only signals outcomes through waiter verdicts and
	// admit return values.
}

func newAdmission(cfg AdmissionConfig) *admission {
	return &admission{policy: cfg.Policy, limit: cfg.Concurrency, depth: cfg.Depth}
}

// admit blocks until the query may execute, honoring ctx while queued.
// The returned evicted count is the number of other waiters this arrival
// displaced (AdmitShedOldest only). On nil error the caller owns one
// execution slot and must release() it when the query leaves the lanes.
func (a *admission) admit(ctx context.Context) (evicted int, err error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return 0, a.errAt
	}
	if a.inExec < a.limit {
		a.inExec++
		a.mu.Unlock()
		return 0, nil
	}
	switch a.policy {
	case AdmitReject:
		a.mu.Unlock()
		return 0, ErrOverloaded
	case AdmitQueue:
		if len(a.queue) >= a.depth {
			a.mu.Unlock()
			return 0, ErrOverloaded
		}
	case AdmitShedOldest:
		for len(a.queue) >= a.depth {
			oldest := a.queue[0]
			a.queue = a.queue[1:]
			oldest.ready <- ErrOverloaded
			evicted++
		}
	}
	w := &admWaiter{ready: make(chan error, 1)}
	a.queue = append(a.queue, w)
	a.mu.Unlock()

	select {
	case err := <-w.ready:
		return evicted, err
	case <-ctx.Done():
		// Deadline or cancellation while queued: leave the queue. The
		// grant may already be in flight, in which case the slot was
		// transferred to us and must be handed back.
		a.mu.Lock()
		for i, q := range a.queue {
			if q == w {
				a.queue = append(a.queue[:i], a.queue[i+1:]...)
				a.mu.Unlock()
				return evicted, ctx.Err()
			}
		}
		a.mu.Unlock()
		if err := <-w.ready; err == nil {
			a.release()
		}
		return evicted, ctx.Err()
	}
}

// release returns an execution slot, transferring it to the oldest waiter
// if one is parked.
func (a *admission) release() {
	a.mu.Lock()
	if len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		a.mu.Unlock()
		w.ready <- nil // slot transferred: inExec unchanged
		return
	}
	a.inExec--
	a.mu.Unlock()
}

// shutdown delivers verdict to every parked waiter and makes future admit
// calls fail with it immediately: ErrShutdown at Close (queued-but-
// unstarted queries must not block behind the backlog), ErrReplicaDown at
// Fail. It returns the number of waiters flushed.
func (a *admission) shutdown(verdict error) int {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return 0
	}
	a.closed = true
	a.errAt = verdict
	flushed := a.queue
	a.queue = nil
	a.mu.Unlock()
	for _, w := range flushed {
		w.ready <- verdict
	}
	return len(flushed)
}

// queued returns the current admission-queue length.
func (a *admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}
