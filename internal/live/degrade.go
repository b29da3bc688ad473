package live

import (
	"fmt"

	"github.com/deeprecinfra/deeprecsys/internal/model"
)

// DegradeConfig describes the graceful-degradation ladder: what the
// service is allowed to give up, in order, to keep admitting traffic under
// sustained overload. The zero value disables degradation.
//
// The ladder has up to two rungs above normal service:
//
//	level 0  full service (every candidate scored by the primary model)
//	level 1  truncated slate: queries larger than Truncate are cut to
//	         their first Truncate candidates before execution — top-N
//	         quality over a smaller slate, a roughly proportional cut in
//	         per-query compute
//	level 2  cheaper model: forward passes run the Fallback zoo variant
//	         on the CPU lane (in addition to truncation when configured)
//
// Rungs that are not configured are skipped: with only Fallback set the
// ladder is 0 → fallback; with only Truncate set it is 0 → truncated.
type DegradeConfig struct {
	// Truncate caps the candidate slate under degradation (0 = no
	// truncation rung).
	Truncate int
	// Fallback is the cheaper model variant served under deep overload
	// (nil = no fallback rung). Fallback queries are executed on the CPU
	// lane: degradation exists to shed compute, and the cheap variant no
	// longer benefits from offload.
	Fallback *model.Model
}

// rungs expands the config into the ladder's levels, level 0 first.
func (d DegradeConfig) rungs() []degradeRung {
	levels := []degradeRung{{}}
	if d.Truncate > 0 {
		levels = append(levels, degradeRung{truncate: d.Truncate})
	}
	if d.Fallback != nil {
		levels = append(levels, degradeRung{truncate: d.Truncate, fallback: true})
	}
	return levels
}

// degradeRung is one level of the ladder.
type degradeRung struct {
	truncate int  // cap on the candidate slate (0 = none)
	fallback bool // serve with the cheaper model on the CPU lane
}

// degraderFor is the SLA-aware controller that walks the degrade ladder: the
// middle layer of the overload defense, between per-query admission
// control (instantaneous) and the fleet autoscaler (slow). It is a Stepper
// whose actuator is the ladder level: a breach — the measured p95 over the
// SLA, or admission control actively shedding — steps one rung deeper,
// restored headroom with no shedding steps one rung back.
//
// On a multi-tenant service one degrader runs per eligible tenant (ladder
// configured and SLA set), walking that tenant's own ladder against that
// tenant's own tail and shed counters: one tenant can be deep in fallback
// while its neighbors serve full slates.
func (s *Service) degraderFor(t *tenant) {
	defer s.bgWG.Done()
	st := Stepper{SLA: t.sla}
	st.Run(s.bgStop, s.cfg.TuneInterval,
		func() Signal {
			return Signal{P95: t.win.Percentile(95), Samples: t.win.Len(), Shed: t.shed.Load() + t.shedDeadline.Load()}
		},
		func(dir int) bool {
			lvl := int(t.degLevel.Load()) - dir // a breach (-1) degrades further
			if lvl < 0 || lvl >= len(t.degLadder) {
				return false
			}
			t.degLevel.Store(int32(lvl))
			t.degradeSteps.Add(1)
			return true
		},
		t.win.Reset)
}

// DegradeLevel returns tenant 0's current degrade level (0 = full service).
func (s *Service) DegradeLevel() int { return int(s.tenants[0].degLevel.Load()) }

// SetDegradeLevel pins tenant 0's degrade level manually (the counterpart
// of the SLA-aware controller, which may move it again when enabled).
// Levels index the configured ladder: 0 is full service, len(ladder)-1 the
// deepest configured degradation.
func (s *Service) SetDegradeLevel(level int) error { return s.SetTenantDegradeLevel(0, level) }

// SetTenantDegradeLevel pins one tenant's degrade level manually.
func (s *Service) SetTenantDegradeLevel(tenant, level int) error {
	t := s.tenants[tenant]
	if level < 0 || level >= len(t.degLadder) {
		return fmt.Errorf("live: degrade level %d outside [0, %d]", level, len(t.degLadder)-1)
	}
	t.degLevel.Store(int32(level))
	return nil
}
