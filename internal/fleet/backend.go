package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
)

// Backend is the transport interface under the fleet: everything the front
// end needs from one serving replica, with no assumption about where that
// replica runs. *live.Service satisfies it natively (the in-process
// replica), and internal/rpc.RemoteReplica satisfies it over an HTTP
// connection (a replica in another process, reached through the wire).
// Routing, health ejection, retry-on-crash, membership, and stats merging
// are written against this interface, so a fleet mixes local and remote
// members freely — the refactor that turns the fleet from an in-process
// library into a multi-process system.
//
// Semantics the fleet relies on:
//
//   - Submit blocks until the query completes, ctx dies, or the backend
//     fails; it returns live.ErrReplicaDown when the serving process is
//     down (crashed, unreachable, connection refused) so health-checked
//     routing and the one-retry-on-crash path treat local crashes and
//     severed connections identically.
//   - Failed reports the backend's health (true = eject from routing). A
//     remote backend derives it from health probes and connection errors.
//   - Stats / TenantStats return the backend's lifetime ledger; the fleet
//     sums them across members (and folds them into retired totals at
//     Remove), so they must be monotone counters.
//   - LatencySnapshot returns the latency window the fleet merges into its
//     fleet-wide percentiles. A remote backend reports its client-side
//     view — measured over the wire — which is exactly the latency the
//     front end's callers experience.
//   - Close releases the fleet's handle. A remote Close severs the
//     connection and stops probing; it does not shut the remote process
//     down (that process owns its own lifecycle).
type Backend interface {
	Submit(ctx context.Context, q live.Query) (live.Reply, error)
	Stats() live.Stats
	TenantStats(i int) live.Stats
	TenantCount() int
	TenantName(i int) string
	LatencySnapshot() []float64
	TenantLatencySnapshot(i int) []float64
	BatchSize() int
	GPUThreshold() int
	SetBatchSize(b int) error
	SetGPUThreshold(thr int) error
	Scale() float64
	Failed() bool
	Close() error
}

// faulter is the optional fault-injection surface of a Backend. Only local
// (in-process) replicas implement it; the chaos controller's crash/slow/
// spike classes apply to them alone. Remote replicas break at the network
// layer instead — see the internal/rpc net-chaos transport.
type faulter interface {
	Fail()
	SetScale(f float64) error
	SetDelay(d time.Duration) error
}

// BackendInfo describes a joining backend to the router: whether size-aware
// policies may steer big queries to it, and its relative node speed (0 =
// read from the backend's own Scale).
type BackendInfo struct {
	HasGPU bool
	Speed  float64
}

// AddBackend joins an externally constructed Backend — typically a remote
// replica speaking the wire protocol — to the routing set, returning its
// fleet-assigned ID. The backend must host the fleet's tenant set (same
// count, names, and order). The fleet takes ownership of the handle: Remove
// and Close call the backend's Close (which, for a remote member, severs
// the connection without stopping the remote process).
//
// Remote members are full citizens of routing, health ejection, retry, and
// stats merging, but the chaos controller never crashes or slows them (it
// cannot reach inside another process), and the autoscaler never picks one
// as a scale-down victim (the fleet did not provision it, so it must not
// deprovision it).
func (f *Fleet) AddBackend(b Backend, info BackendInfo) (int, error) {
	speed := info.Speed
	if speed == 0 {
		speed = b.Scale()
	}
	if speed <= 0 {
		speed = 1
	}
	return f.join(b, live.Config{}, false, info.HasGPU, speed)
}

// fleetBackend adapts a whole Fleet to the Backend interface, so a fleet
// can itself be served over the wire (a front-end process whose "replica"
// is an entire downstream fleet). Submit drops the replica attribution —
// the process boundary is exactly where per-replica identity stops being
// the caller's concern.
type fleetBackend struct{ f *Fleet }

// AsBackend returns the fleet viewed as one Backend: Submit routes as
// usual, Stats is the fleet-merged ledger, and Failed reports whether the
// fleet has no healthy routable replica left.
func (f *Fleet) AsBackend() Backend { return fleetBackend{f} }

func (fb fleetBackend) Submit(ctx context.Context, q live.Query) (live.Reply, error) {
	reply, _, err := fb.f.Submit(ctx, q)
	if err != nil && errors.Is(err, ErrNoHealthyReplica) {
		// Over a Backend edge the distinction collapses: a fleet with no
		// healthy member is a down backend.
		err = fmt.Errorf("%w: %w", live.ErrReplicaDown, err)
	}
	return reply, err
}

// Stats is the fleet-merged snapshot as a Backend consumer (an upstream
// front end, the RPC server's /statsz and Retry-After hint) aggregates it,
// with FrontSubmitted — each query once, however many replicas it tried —
// as the Submitted figure the outside world sees.
func (fb fleetBackend) Stats() live.Stats {
	fst := fb.f.Stats()
	fst.Submitted = fst.FrontSubmitted
	return fst.Stats
}

func (fb fleetBackend) TenantStats(i int) live.Stats {
	return fb.f.Stats().Tenants[i].Stats
}

func (fb fleetBackend) TenantCount() int { return fb.f.TenantCount() }

func (fb fleetBackend) TenantName(i int) string {
	fb.f.mu.RLock()
	defer fb.f.mu.RUnlock()
	return fb.f.tenants[i].Name
}

func (fb fleetBackend) LatencySnapshot() []float64 {
	fb.f.mu.RLock()
	defer fb.f.mu.RUnlock()
	var merged []float64
	for _, r := range fb.f.replicas {
		merged = append(merged, r.svc.LatencySnapshot()...)
	}
	return merged
}

func (fb fleetBackend) TenantLatencySnapshot(i int) []float64 {
	fb.f.mu.RLock()
	defer fb.f.mu.RUnlock()
	var merged []float64
	for _, r := range fb.f.replicas {
		merged = append(merged, r.svc.TenantLatencySnapshot(i)...)
	}
	return merged
}

func (fb fleetBackend) BatchSize() int              { return fb.f.BatchSize() }
func (fb fleetBackend) GPUThreshold() int           { return fb.f.GPUThreshold() }
func (fb fleetBackend) SetBatchSize(b int) error    { return fb.f.SetBatchSize(b) }
func (fb fleetBackend) SetGPUThreshold(t int) error { return fb.f.SetGPUThreshold(t) }
func (fb fleetBackend) Scale() float64              { return 1 }

// Failed reports whether the fleet has nowhere to route: every routable
// replica is down.
func (fb fleetBackend) Failed() bool {
	fb.f.mu.RLock()
	defer fb.f.mu.RUnlock()
	for _, r := range fb.f.replicas {
		if !r.draining && !r.svc.Failed() {
			return false
		}
	}
	return true
}

func (fb fleetBackend) Close() error { return fb.f.Close() }
