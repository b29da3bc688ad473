package deeprecsys

import (
	"fmt"
	"io"
	"strings"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// Workload is a serving scenario: the query-size distribution and arrival
// process a System is evaluated (or driven) under. The zero value is the
// production workload of the paper — Poisson arrivals with the heavy-tailed
// production size distribution — so existing calls are unchanged; build
// alternatives with ParseWorkload or TraceWorkload and install them with
// WithWorkload.
type Workload struct {
	sizes    workload.SizeDist
	arrivals string // "poisson" or "uniform"; "" = poisson
	traceLen int    // > 0 when derived from a recorded trace
}

// DefaultWorkload returns the paper's production workload: Poisson arrivals
// and the heavy-tailed production query-size distribution.
func DefaultWorkload() Workload {
	return Workload{sizes: workload.DefaultProduction(), arrivals: "poisson"}
}

// ParseWorkload parses a workload spec of the form "<dist>[@<arrivals>]".
// This is the canonical statement of the spec grammar. `deeprecsys loadgen
// -dist`, `deeprecsys replay -workload`, `deeprecsys serve -workload` and a
// tenant's `workload=` key take only its size-distribution half; those
// subcommands take the arrival process from `-arrivals`. The
// size-distribution half is one of
//
//	production                the paper's heavy-tailed production dist
//	lognormal[:<mu>,<sigma>]  canonical web-service comparison dist
//	                          (defaults: ln 70 ≈ 4.25, 0.75)
//	normal[:<mean>,<stddev>]  Gaussian working sets (defaults: 100, 40)
//	fixed:<n>                 every query carries n items
//
// and the arrival half is "poisson" (the default, open-loop) or "uniform"
// (evenly spaced), the two processes the capacity search realizes; any
// other is refused. The rate is bound where the stream is realized. Examples:
// "production", "fixed:100@uniform", "lognormal:4.0,0.9".
//
// Drawn sizes clamp to [1, 1000] (the production distribution's observed
// maximum, workload.MaxQuerySize).
func ParseWorkload(spec string) (Workload, error) {
	distSpec, arrSpec, hasArr := strings.Cut(spec, "@")
	sizes, err := workload.ParseDist(distSpec)
	if err != nil {
		return Workload{}, err
	}
	arrivals := "poisson"
	if hasArr {
		if arrSpec != "poisson" && arrSpec != "uniform" {
			return Workload{}, fmt.Errorf("deeprecsys: workload arrival process %q: want poisson or uniform", arrSpec)
		}
		arrivals = arrSpec
	}
	return Workload{sizes: sizes, arrivals: arrivals}, nil
}

// TraceWorkload derives a workload from a recorded query trace in the CSV
// interchange format of `deeprecsys loadgen` ("arrival_sec,size"): the trace's
// sizes become the workload's empirical size distribution, so capacity
// searches and the tuner can extrapolate beyond the recorded span. The
// recorded arrival timings are not replayed here — the search probes
// arrival rates; to replay a trace tick-for-tick use `deeprecsys replay` (offline)
// or `deeprecsys serve -trace` (live).
func TraceWorkload(r io.Reader) (Workload, error) {
	queries, err := workload.ReadTrace(r)
	if err != nil {
		return Workload{}, err
	}
	sizes, err := workload.EmpiricalFromTrace(queries)
	if err != nil {
		return Workload{}, err
	}
	return Workload{sizes: sizes, arrivals: "poisson", traceLen: len(queries)}, nil
}

// Name identifies the workload in reports, e.g. "production@poisson".
func (w Workload) Name() string {
	return fmt.Sprintf("%s@%s", w.sizeDist().Name(), w.arrivalName())
}

// IsTrace reports whether the workload was derived from a recorded trace.
func (w Workload) IsTrace() bool { return w.traceLen > 0 }

// TraceLen returns the number of recorded queries (0 when not a trace).
func (w Workload) TraceLen() int { return w.traceLen }

// sizeDist returns the size distribution, defaulting the zero Workload to
// the production distribution.
func (w Workload) sizeDist() workload.SizeDist {
	if w.sizes == nil {
		return workload.DefaultProduction()
	}
	return w.sizes
}

// arrivalName returns the arrival-process spec, defaulting to poisson.
func (w Workload) arrivalName() string {
	if w.arrivals == "" {
		return "poisson"
	}
	return w.arrivals
}

// WithWorkload evaluates the system under the given scenario instead of the
// default production workload: Tune, Baseline, and Capacity all measure
// latency-bounded throughput against its query-size distribution and
// arrival process (Poisson or uniform).
func WithWorkload(w Workload) Option {
	return func(s *System) { s.wl = w }
}
