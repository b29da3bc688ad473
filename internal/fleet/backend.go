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
// replica), internal/rpc.RemoteReplica over an HTTP connection (a replica in
// another process), and a whole Fleet through AsBackend. Routing, health
// ejection, retry-on-crash, membership and stats merging are written
// against it, so a fleet mixes local and remote members freely.
//
// One method reads, and every consumer folds what it returns:
//
//   - Snapshot is one read of the backend: each tenant's live.Stats in
//     tenant order, the samples of that tenant's latency window beside
//     them, and the node's scale factor. It carries no service-wide
//     aggregate: whoever wants one (Fleet.Stats per member, per tenant and
//     fleet-wide; the RPC server's /statsz and Retry-After hint) calls
//     live.Fold on these parts, so a total always equals the sum of the
//     breakdown reported with it. The ledgers must be monotone: the fleet
//     sums them across members and keeps a removed member's last ones. The
//     tenant set (count, names, order) is fixed for the backend's lifetime
//     and is read from a snapshot at join. A remote backend reports
//     client-measured round trips as its samples — from where the router
//     stands, the wire is part of the replica's latency.
//   - Submit blocks until the query completes, ctx dies, or the backend
//     fails; it returns live.ErrReplicaDown when the serving process is
//     down (crashed, unreachable, connection refused) so health-checked
//     routing and the one-retry-on-crash path treat local crashes and
//     severed connections identically.
//   - SetBatchSize / SetGPUThreshold move tenant 0's knobs; the values in
//     effect come back in the next Snapshot.
//   - Failed reports the backend's health (true = eject from routing). A
//     remote backend derives it from health probes and connection errors.
//   - Close releases the fleet's handle; Snapshot keeps answering after it
//     (Remove reads the final ledgers then). A remote Close severs the
//     connection and stops probing; it does not shut the remote process
//     down (that process owns its own lifecycle).
type Backend interface {
	Submit(ctx context.Context, q live.Query) (live.Reply, error)
	Snapshot() live.Snapshot
	SetBatchSize(b int) error
	SetGPUThreshold(thr int) error
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
		speed = b.Snapshot().Scale
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
// usual, Snapshot is the fleet's tenants merged over its members, and Failed
// reports whether the fleet has no healthy routable replica left.
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

// Snapshot is each tenant merged over the fleet's members, as Fleet.Stats
// reports it, with one change: Submitted is the tenant's front-door count —
// each query once, however many replicas it tried — which is what a
// consumer on the far side of a Backend edge (an upstream front end, the RPC
// server's /statsz) submitted. Admitted stays the per-replica sum, the
// fleet's GPUQueryShare denominator.
func (fb fleetBackend) Snapshot() live.Snapshot {
	fb.f.mu.RLock()
	_, tenants := fb.f.snapshots()
	fb.f.mu.RUnlock()
	for ti := range tenants {
		tenants[ti].Submitted = fb.f.frontSubmitted[ti].Load()
	}
	return live.Snapshot{Tenants: tenants, Scale: 1}
}

func (fb fleetBackend) SetBatchSize(b int) error    { return fb.f.SetBatchSize(b) }
func (fb fleetBackend) SetGPUThreshold(t int) error { return fb.f.SetGPUThreshold(t) }

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
