package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// ChaosConfig parameterizes the fault-injection layer: a controller that
// perturbs a serving fleet the way production hardware does — replica
// crashes with restarts, transient per-replica slowdowns, latency spikes —
// so the overload machinery (health-checked routing, retry, admission
// control, autoscaling) is exercised against real failures, not just load.
// The zero value injects nothing.
type ChaosConfig struct {
	// Interval is the injection tick (default 2s). Each tick rolls each
	// fault class independently against its probability.
	Interval time.Duration
	// Crash is the per-tick probability of crashing one random healthy
	// replica (live.Service.Fail). A crash is only injected while at least
	// two healthy routable replicas exist, so chaos degrades the fleet but
	// never black-holes it outright.
	Crash float64
	// Restart is the delay before a crashed replica is replaced (default
	// 1s): the dead member is removed and a fresh replica started from the
	// same config, modeling a supervised process restart.
	Restart time.Duration
	// Slow is the per-tick probability of slowing one random replica for
	// one tick: its service-time scale is multiplied by SlowFactor
	// (default 3), then restored — co-tenancy or thermal throttling.
	Slow       float64
	SlowFactor float64
	// Spike is the per-tick probability of injecting SpikeDelay (default
	// 50ms) of extra latency into every query one replica completes during
	// the tick — a GC pause or network hiccup that inflates latency without
	// consuming executor capacity.
	Spike      float64
	SpikeDelay time.Duration
	// Seed makes the injection schedule deterministic (default 1).
	Seed int64
}

// enabled reports whether any fault class can fire.
func (c ChaosConfig) enabled() bool { return c.Crash > 0 || c.Slow > 0 || c.Spike > 0 }

// withDefaults fills defaults and validates.
func (c ChaosConfig) withDefaults() (ChaosConfig, error) {
	if c.Interval == 0 {
		c.Interval = 2 * time.Second
	}
	if c.Interval < 0 {
		return c, fmt.Errorf("fleet: negative chaos interval %v", c.Interval)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"crash", c.Crash}, {"slow", c.Slow}, {"spike", c.Spike}} {
		if p.v < 0 || p.v > 1 {
			return c, fmt.Errorf("fleet: chaos %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.Restart == 0 {
		c.Restart = time.Second
	}
	if c.Restart < 0 {
		return c, fmt.Errorf("fleet: negative chaos restart delay %v", c.Restart)
	}
	if c.SlowFactor == 0 {
		c.SlowFactor = 3
	}
	if c.SlowFactor < 1 {
		return c, fmt.Errorf("fleet: chaos slow factor %v must be >= 1", c.SlowFactor)
	}
	if c.SpikeDelay == 0 {
		c.SpikeDelay = 50 * time.Millisecond
	}
	if c.SpikeDelay < 0 {
		return c, fmt.Errorf("fleet: negative chaos spike delay %v", c.SpikeDelay)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// ParseChaos parses a chaos spec as accepted by `deeprecsys serve -chaos`:
// "none" (or empty) disables injection; otherwise a comma-separated list of
// key=value pairs:
//
//	every=<dur>    injection tick (default 2s)
//	crash=<p>      per-tick replica-crash probability
//	restart=<dur>  crash-to-restart delay (default 1s)
//	slow=<p>       per-tick replica-slowdown probability
//	factor=<f>     slowdown scale multiplier (default 3)
//	spike=<p>      per-tick latency-spike probability
//	delay=<dur>    spike's injected per-query latency (default 50ms)
//
// Example: "every=500ms,crash=0.2,restart=1s,slow=0.3,factor=2.5".
func ParseChaos(spec string) (ChaosConfig, error) {
	var cfg ChaosConfig
	if workload.Off(spec) {
		return cfg, nil
	}
	err := workload.Pairs("fleet", "chaos", workload.Fields(spec, ","), "=",
		workload.NewKey("every=<dur>", workload.PosDuration(&cfg.Interval)),
		workload.NewKey("crash=<p>", workload.Float(&cfg.Crash)),
		workload.NewKey("restart=<dur>", workload.PosDuration(&cfg.Restart)),
		workload.NewKey("slow=<p>", workload.Float(&cfg.Slow)),
		workload.NewKey("factor=<f>", workload.Float(&cfg.SlowFactor)),
		workload.NewKey("spike=<p>", workload.Float(&cfg.Spike)),
		workload.NewKey("delay=<dur>", workload.PosDuration(&cfg.SpikeDelay)))
	if err == nil {
		// Range checks are withDefaults', shared with StartChaos.
		_, err = cfg.withDefaults()
	}
	if err == nil && !cfg.enabled() {
		err = fmt.Errorf("fleet: chaos spec %q injects nothing (set crash, slow, or spike)", spec)
	}
	if err != nil {
		return ChaosConfig{}, err
	}
	return cfg, nil
}

// StartChaos starts the fault-injection controller on a serving fleet. One
// controller per fleet; Close stops it (waiting for any pending restart).
func (f *Fleet) StartChaos(cfg ChaosConfig) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	if !cfg.enabled() {
		return errors.New("fleet: chaos config injects nothing (set Crash, Slow, or Spike)")
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.chStop != nil {
		f.mu.Unlock()
		return errors.New("fleet: chaos controller already running")
	}
	f.chStop = make(chan struct{})
	f.chDone = make(chan struct{})
	f.mu.Unlock()
	go f.chaos(cfg)
	return nil
}

// chaos is the injection loop. Slowdowns and spikes last one tick and are
// reverted at the next; crashes persist until the scheduled restart
// replaces the replica. The loop never exits with an injection outstanding:
// on stop it reverts transients and waits for pending restarts.
func (f *Fleet) chaos(cfg ChaosConfig) {
	defer close(f.chDone)
	rng := rand.New(rand.NewSource(cfg.Seed))
	ticker := time.NewTicker(cfg.Interval)
	defer ticker.Stop()
	var restarts sync.WaitGroup
	defer restarts.Wait()
	var slowed, spiked *replica
	revert := func() {
		if slowed != nil {
			slowed.svc.(faulter).SetScale(slowed.speed)
			slowed = nil
		}
		if spiked != nil {
			spiked.svc.(faulter).SetDelay(0)
			spiked = nil
		}
	}
	defer revert()
	for {
		select {
		case <-f.chStop:
			return
		case <-ticker.C:
		}
		revert()
		if rng.Float64() < cfg.Crash {
			f.crashOne(rng, cfg.Restart, &restarts)
		}
		if rng.Float64() < cfg.Slow {
			if r := f.pickHealthy(rng); r != nil {
				r.svc.(faulter).SetScale(r.speed * cfg.SlowFactor)
				slowed = r
			}
		}
		if rng.Float64() < cfg.Spike {
			if r := f.pickHealthy(rng); r != nil {
				r.svc.(faulter).SetDelay(cfg.SpikeDelay)
				spiked = r
			}
		}
	}
}

// pickHealthy returns one random victim replica (nil if none). Remote
// members are excluded: the process-level fault classes cannot reach inside
// another process — the network fault injector (internal/rpc net chaos)
// breaks their wire instead.
func (f *Fleet) pickHealthy(rng *rand.Rand) *replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	cands := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		if r.victim() {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

// crashOne fails one random victim replica and schedules its restart. The
// crash is skipped unless at least two healthy routable replicas, local or
// remote, exist: chaos degrades the fleet, it does not execute it.
func (f *Fleet) crashOne(rng *rand.Rand, restartAfter time.Duration, restarts *sync.WaitGroup) {
	f.mu.RLock()
	cands := make([]*replica, 0, len(f.replicas))
	healthy := 0
	for _, r := range f.replicas {
		if !r.draining && r.healthy() {
			healthy++
		}
		if r.victim() {
			cands = append(cands, r)
		}
	}
	f.mu.RUnlock()
	if healthy < 2 || len(cands) == 0 {
		return
	}
	victim := cands[rng.Intn(len(cands))]
	victim.svc.(faulter).Fail()
	f.crashes.Add(1)
	restarts.Add(1)
	go func() {
		defer restarts.Done()
		timer := time.NewTimer(restartAfter)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-f.chStop:
			// Shutting down: replace immediately so the dead member does
			// not linger in the final stats.
		}
		// Remove drains the dead replica (in-flight queries abort promptly
		// on the fail signal) and folds its counters into the fleet totals;
		// the replacement is reborn from the same config.
		if err := f.Remove(victim.id); err != nil {
			return
		}
		if _, err := f.Add(victim.cfg); err == nil {
			f.restarts.Add(1)
		}
	}()
}
