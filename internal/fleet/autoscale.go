package fleet

import (
	"errors"
	"fmt"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/live"
)

// AutoscaleConfig parameterizes the fleet autoscaler — the slowest layer of
// the overload defense, above per-query admission control and the
// per-replica degrade ladder: when sustained load exceeds what the current
// membership can serve within the SLA, add capacity; when sustained
// headroom shows the fleet is oversized, give it back.
type AutoscaleConfig struct {
	// Min / Max bound the routable fleet size the controller may set.
	Min, Max int
	// Interval is the decision period (default 500ms). Scaling follows the
	// settle/reset discipline: after every membership move one interval is
	// skipped so the next decision reads the new operating point.
	Interval time.Duration
	// NewConfig supplies the config for each grown replica, or the reason
	// one cannot be built (the scale-up is then skipped). The caller owns
	// seed and speed-factor assignment, so grown replicas keep the fleet's
	// deterministic seeding and heterogeneity model.
	NewConfig func() (live.Config, error)
}

// StartAutoscale starts the closed-loop autoscaler on a serving fleet. It
// grows the fleet toward Max while the fleet-wide online p95 breaches the
// SLA or admission control is actively shedding, and shrinks toward Min
// when the p95 shows sustained headroom with no shedding. The fleet must
// have an SLA (the replicas' shared target) for the loop to have an
// objective. One autoscaler per fleet; Close stops it.
func (f *Fleet) StartAutoscale(cfg AutoscaleConfig) error {
	if cfg.Min < 1 {
		return fmt.Errorf("fleet: autoscale min %d < 1", cfg.Min)
	}
	if cfg.Max < cfg.Min {
		return fmt.Errorf("fleet: autoscale max %d < min %d", cfg.Max, cfg.Min)
	}
	if cfg.NewConfig == nil {
		return errors.New("fleet: autoscale needs a replica-config factory")
	}
	if cfg.Interval == 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Interval < 0 {
		return fmt.Errorf("fleet: negative autoscale interval %v", cfg.Interval)
	}
	sla := f.Stats().SLA
	if sla <= 0 {
		return errors.New("fleet: autoscale requires the replicas to share an SLA target")
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.asStop != nil {
		f.mu.Unlock()
		return errors.New("fleet: autoscaler already running")
	}
	f.asStop = make(chan struct{})
	f.asDone = make(chan struct{})
	f.mu.Unlock()
	go f.autoscaler(cfg, sla)
	return nil
}

// autoscaler is the controller loop: a live.Stepper over the fleet-merged
// online p95 and the fleet-wide shed counter (the live degrader's overload
// signal, one tier up) whose actuator is the membership — a breach adds a
// replica up to Max, headroom removes the newest one down to Min. The
// fleet has no one window to reset; replicas keep their own.
func (f *Fleet) autoscaler(cfg AutoscaleConfig, sla time.Duration) {
	defer close(f.asDone)
	st := live.Stepper{SLA: sla}
	st.Run(f.asStop, cfg.Interval,
		func() live.Signal {
			fs := f.Stats()
			return live.Signal{P95: fs.P95.Seconds(), Samples: fs.WindowLen, Shed: fs.Shed + fs.ShedDeadline}
		},
		func(dir int) bool {
			if dir < 0 {
				if f.Size() >= cfg.Max {
					return false
				}
				grown, err := cfg.NewConfig()
				if err == nil {
					_, err = f.Add(grown)
				}
				if err != nil {
					return false
				}
				f.scaleUps.Add(1)
				return true
			}
			// Remove blocks for the drain — lossless by construction — so
			// a shrink never drops an admitted query.
			id, ok := f.newestHealthy()
			if f.Size() <= cfg.Min || !ok || f.Remove(id) != nil {
				return false
			}
			f.scaleDowns.Add(1)
			return true
		},
		nil)
}

// newestHealthy returns the ID of the newest routable, healthy, local
// replica — the scale-down victim (last in, first out keeps the founding
// replicas' longer windows intact). Remote members are never victims: the
// fleet did not provision them, so it must not deprovision them.
func (f *Fleet) newestHealthy() (int, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := len(f.replicas) - 1; i >= 0; i-- {
		r := f.replicas[i]
		if r.local && !r.draining && !r.removing && r.healthy() {
			return r.id, true
		}
	}
	return 0, false
}
