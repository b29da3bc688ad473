package workload

import (
	"fmt"
	"math/rand"
)

// Spec parsing: the textual workload format shared by the public
// deeprecsys.ParseWorkload API, cmd/loadgen, cmd/replay, and
// `deeprecsys serve -workload`. The grammar is documented canonically on
// deeprecsys.ParseWorkload; ParseDist and ParseArrivals implement its two
// halves (the size-distribution spec and the arrival spec).

// distForms is the size-distribution half of the grammar.
var distForms = []Form[SizeDist]{
	NewForm("production", func([]string) (SizeDist, error) { return DefaultProduction(), nil }),
	NewForm("lognormal[:<mu>,<sigma>]", func(a []string) (SizeDist, error) {
		d := DefaultLogNormal()
		err := Args(a, Float(&d.Mu), Float(&d.Sigma))
		return d, Need(err, d.Sigma > 0, "sigma > 0")
	}, 0, 2),
	NewForm("normal[:<mean>,<stddev>]", func(a []string) (SizeDist, error) {
		d := Normal{Mean: 100, Stddev: 40}
		err := Args(a, Float(&d.Mean), Float(&d.Stddev))
		return d, Need(err, d.Stddev >= 0, "stddev >= 0")
	}, 0, 2),
	NewForm("fixed:<n>", func(a []string) (SizeDist, error) {
		var d Fixed
		return d, Args(a, Int(&d.Size, 1, MaxQuerySize))
	}, 1),
}

// ParseDist parses a size-distribution spec.
func ParseDist(spec string) (SizeDist, error) {
	return ParseCall("workload", "size distribution", spec, distForms)
}

// ParseArrivals parses an arrival-process spec at the given base rate.
// Beyond the stationary processes (poisson, uniform) the grammar covers the
// time-varying scenarios the elastic serving tier has to survive, all
// anchored to ratePerSec as the baseline:
//
//	poisson                          memoryless arrivals at the base rate
//	uniform                          evenly spaced arrivals
//	diurnal:<amp>,<period>           sinusoidal daily cycle: base×(1±amp)
//	                                 over each period (amp in [0,1))
//	flash:<mult>,<start>,<ramp>,<hold>,<decay>
//	                                 flash crowd: ramps to mult×base at
//	                                 start over ramp, holds, decays back
//	mmpp:<mult>,<meanLow>,<meanHigh> two-state MMPP: bursts at mult×base
//	                                 with exponential sojourns of the given
//	                                 means
//
// Durations use Go syntax ("30s", "1m"). The time-varying processes are
// stateful (they track the arrival clock), so every call returns a fresh
// instance.
func ParseArrivals(spec string, ratePerSec float64) (ArrivalProcess, error) {
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("workload: arrival rate must be positive, got %v", ratePerSec)
	}
	return ParseCall("workload", "arrival process", spec, []Form[ArrivalProcess]{
		NewForm("poisson", func([]string) (ArrivalProcess, error) { return Poisson{RatePerSec: ratePerSec}, nil }),
		NewForm("uniform", func([]string) (ArrivalProcess, error) { return Uniform{RatePerSec: ratePerSec}, nil }),
		NewForm("diurnal:<amp>,<period>", func(a []string) (ArrivalProcess, error) {
			d := &DiurnalArrivals{BaseQPS: ratePerSec}
			err := Args(a, Float(&d.Amplitude), PosDuration(&d.Period))
			return d, Need(err, d.Amplitude >= 0 && d.Amplitude < 1, "amplitude in [0, 1)")
		}, 2),
		NewForm("flash:<mult>,<start>,<ramp>,<hold>,<decay>", func(a []string) (ArrivalProcess, error) {
			f := &Flash{BaseQPS: ratePerSec}
			err := Args(a, Float(&f.Mult), Duration(&f.Start), Duration(&f.Ramp), Duration(&f.Hold), Duration(&f.Decay))
			err = Need(err, f.Mult >= 1 && min(f.Start, f.Ramp, f.Hold, f.Decay) >= 0, "mult >= 1 and non-negative durations")
			return f, Need(err, f.Mult == 1 || f.Ramp+f.Hold+f.Decay > 0, "a spike extent (ramp, hold and decay are all zero)")
		}, 5),
		NewForm("mmpp:<mult>,<meanLow>,<meanHigh>", func(a []string) (ArrivalProcess, error) {
			m := &MMPP{LowQPS: ratePerSec}
			var mult float64
			err := Args(a, Float(&mult), PosDuration(&m.MeanLow), PosDuration(&m.MeanHigh))
			m.HighQPS = ratePerSec * mult
			return m, Need(err, mult >= 1, "burst multiplier >= 1")
		}, 3),
	})
}

// GenerateSpec parses a (distribution, arrivals) spec pair and generates a
// deterministic n-query stream — the shared generate-from-spec entry point
// of cmd/replay and the deeprecsys serve subcommand.
func GenerateSpec(dist, arrivals string, rate float64, n int, seed int64) ([]Query, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: need at least one query, got %d", n)
	}
	sizes, err := ParseDist(dist)
	if err != nil {
		return nil, err
	}
	proc, err := ParseArrivals(arrivals, rate)
	if err != nil {
		return nil, err
	}
	return NewGenerator(proc, sizes, seed).Take(n), nil
}

// Empirical resamples query sizes uniformly from a recorded population —
// the size distribution implied by a captured trace. It lets trace-replay
// workloads drive the capacity search and the tuner, which need a SizeDist
// they can sample indefinitely, not a finite query list.
type Empirical struct {
	// Sizes is the recorded population; it must be non-empty with every
	// value in [1, MaxQuerySize]. NewEmpirical validates once so Sample
	// stays a bare slice index.
	sizes []int
}

// NewEmpirical builds an Empirical distribution over the recorded sizes.
func NewEmpirical(sizes []int) (Empirical, error) {
	if len(sizes) == 0 {
		return Empirical{}, fmt.Errorf("workload: empirical distribution needs at least one size")
	}
	for i, v := range sizes {
		if v < 1 || v > MaxQuerySize {
			return Empirical{}, fmt.Errorf("workload: empirical size %d at index %d outside [1, %d]", v, i, MaxQuerySize)
		}
	}
	own := make([]int, len(sizes))
	copy(own, sizes)
	return Empirical{sizes: own}, nil
}

// EmpiricalFromTrace builds an Empirical distribution from a query trace.
func EmpiricalFromTrace(queries []Query) (Empirical, error) {
	sizes := make([]int, len(queries))
	for i, q := range queries {
		sizes[i] = q.Size
	}
	return NewEmpirical(sizes)
}

// Sample implements SizeDist.
func (e Empirical) Sample(rng *rand.Rand) int { return e.sizes[rng.Intn(len(e.sizes))] }

// Name implements SizeDist.
func (e Empirical) Name() string { return fmt.Sprintf("empirical(%d sizes)", len(e.sizes)) }
