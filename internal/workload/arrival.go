package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ArrivalProcess draws inter-arrival gaps between consecutive queries.
type ArrivalProcess interface {
	// NextGap draws the time until the next query arrives.
	NextGap(rng *rand.Rand) time.Duration
	// Name identifies the process in reports.
	Name() string
}

// Poisson is a Poisson arrival process with the given mean rate in queries
// per second: inter-arrival gaps are exponentially distributed. Profiling of
// production recommendation services shows their arrivals are Poisson
// (paper Section III-C), so this is the default for all experiments.
type Poisson struct {
	RatePerSec float64
}

// NextGap implements ArrivalProcess.
func (p Poisson) NextGap(rng *rand.Rand) time.Duration {
	if p.RatePerSec <= 0 {
		panic(fmt.Sprintf("workload: Poisson rate must be positive, got %v", p.RatePerSec))
	}
	return time.Duration(rng.ExpFloat64() / p.RatePerSec * float64(time.Second))
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return fmt.Sprintf("poisson(%.1f qps)", p.RatePerSec) }

// Uniform spaces queries exactly 1/RatePerSec apart — a closed-loop control
// used in tests and for isolating queueing effects from arrival burstiness.
type Uniform struct {
	RatePerSec float64
}

// NextGap implements ArrivalProcess.
func (u Uniform) NextGap(*rand.Rand) time.Duration {
	if u.RatePerSec <= 0 {
		panic(fmt.Sprintf("workload: Uniform rate must be positive, got %v", u.RatePerSec))
	}
	return time.Duration(float64(time.Second) / u.RatePerSec)
}

// Name implements ArrivalProcess.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%.1f qps)", u.RatePerSec) }

// Time-varying arrival processes: the diurnal cycle of the paper's fleet
// studies (DiurnalArrivals.RateAt is also the curve the offline fleet of
// Figs. 7 and 13 samples per window) plus the overload scenarios the
// elastic serving tier has to survive, as ArrivalProcess implementations
// any live drive loop can consume. They are non-homogeneous Poisson
// processes: each keeps an internal clock at the last arrival and draws the
// next gap against the instantaneous rate, so a Generator stream stays
// deterministic for a given seed. Because of that internal clock they are
// stateful and must not be shared across generators; ParseArrivals returns
// a fresh instance per call.

// rateFunc is an instantaneous-rate curve in queries/sec at time t.
type rateFunc func(t time.Duration) float64

// nextGapThinned draws the next inter-arrival gap of a non-homogeneous
// Poisson process by Lewis-Shedler thinning: candidate arrivals are drawn
// from a homogeneous envelope at rateMax and accepted with probability
// rate(t)/rateMax, which yields exactly the target intensity. t is the
// process clock at the previous arrival; the returned gap advances it.
func nextGapThinned(rng *rand.Rand, t time.Duration, rateMax float64, rate rateFunc) time.Duration {
	at := t
	for {
		at += time.Duration(rng.ExpFloat64() / rateMax * float64(time.Second))
		if rng.Float64()*rateMax <= rate(at) {
			return at - t
		}
	}
}

// DiurnalArrivals is the daily traffic cycle of a global web service: the
// arrival rate oscillates sinusoidally around BaseQPS
// with the given relative Amplitude over each Period. Production
// recommendation fleets see exactly this daily cycle (paper Section VII);
// it is the shape an autoscaler must track.
type DiurnalArrivals struct {
	BaseQPS   float64
	Amplitude float64 // relative, in [0, 1)
	Period    time.Duration

	t time.Duration // internal clock: time of the last arrival
}

// RateAt returns the instantaneous arrival rate at time t into the cycle.
func (d *DiurnalArrivals) RateAt(t time.Duration) float64 {
	phase := 2 * math.Pi * float64(t) / float64(d.Period)
	return d.BaseQPS * (1 + float64(d.Amplitude*math.Sin(phase)))
}

// NextGap implements ArrivalProcess.
func (d *DiurnalArrivals) NextGap(rng *rand.Rand) time.Duration {
	gap := nextGapThinned(rng, d.t, d.BaseQPS*(1+d.Amplitude), d.RateAt)
	d.t += gap
	return gap
}

// Name implements ArrivalProcess.
func (d *DiurnalArrivals) Name() string {
	return fmt.Sprintf("diurnal(%.1f qps ±%.0f%% / %v)", d.BaseQPS, d.Amplitude*100, d.Period)
}

// Flash models a flash crowd: baseline traffic at BaseQPS that ramps
// linearly to Mult×BaseQPS over Ramp starting at Start, holds the peak for
// Hold, and decays linearly back over Decay — the canonical overload burst
// an admission controller has to shed through and an autoscaler has to
// chase.
type Flash struct {
	BaseQPS float64
	Mult    float64 // peak rate multiplier, >= 1
	Start   time.Duration
	Ramp    time.Duration
	Hold    time.Duration
	Decay   time.Duration

	t time.Duration // internal clock: time of the last arrival
}

// RateAt returns the instantaneous arrival rate at time t into the run.
func (f *Flash) RateAt(t time.Duration) float64 {
	peak := float64(f.BaseQPS * f.Mult)
	switch {
	case t < f.Start:
		return f.BaseQPS
	case t < f.Start+f.Ramp:
		frac := float64(t-f.Start) / float64(f.Ramp)
		return f.BaseQPS + float64((peak-f.BaseQPS)*frac)
	case t < f.Start+f.Ramp+f.Hold:
		return peak
	case t < f.Start+f.Ramp+f.Hold+f.Decay:
		frac := float64(t-f.Start-f.Ramp-f.Hold) / float64(f.Decay)
		return peak - float64((peak-f.BaseQPS)*frac)
	default:
		return f.BaseQPS
	}
}

// NextGap implements ArrivalProcess.
func (f *Flash) NextGap(rng *rand.Rand) time.Duration {
	gap := nextGapThinned(rng, f.t, f.BaseQPS*f.Mult, f.RateAt)
	f.t += gap
	return gap
}

// Name implements ArrivalProcess.
func (f *Flash) Name() string {
	return fmt.Sprintf("flash(%.1f qps ×%.1f @%v ramp %v hold %v decay %v)",
		f.BaseQPS, f.Mult, f.Start, f.Ramp, f.Hold, f.Decay)
}

// MMPP is a two-state Markov-modulated Poisson process: arrivals are
// Poisson at LowQPS in the low state and HighQPS in the high state, and the
// process switches state after exponentially distributed sojourns with
// means MeanLow and MeanHigh. It produces the clustered bursts that
// distinguish real traffic from a memoryless Poisson stream — the overload
// pattern that defeats purely reactive capacity planning.
type MMPP struct {
	LowQPS   float64
	HighQPS  float64
	MeanLow  time.Duration // mean sojourn in the low state
	MeanHigh time.Duration // mean sojourn in the high state

	high    bool          // current state (starts low)
	sojourn time.Duration // time left in the current state (0 = draw on first use)
	started bool
}

// NextGap implements ArrivalProcess.
func (m *MMPP) NextGap(rng *rand.Rand) time.Duration {
	if !m.started {
		m.started = true
		m.sojourn = time.Duration(rng.ExpFloat64() * float64(m.MeanLow))
	}
	var acc time.Duration
	for {
		rate, mean := m.LowQPS, m.MeanHigh
		if m.high {
			rate, mean = m.HighQPS, m.MeanLow
		}
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if gap < m.sojourn {
			m.sojourn -= gap
			return acc + gap
		}
		// No arrival before the state flips: consume the sojourn, switch
		// state, and keep drawing (the exponential is memoryless, so
		// restarting the draw in the new state is exact).
		acc += m.sojourn
		m.high = !m.high
		m.sojourn = time.Duration(rng.ExpFloat64() * float64(mean))
	}
}

// Name implements ArrivalProcess.
func (m *MMPP) Name() string {
	return fmt.Sprintf("mmpp(%.1f/%.1f qps, sojourn %v/%v)", m.LowQPS, m.HighQPS, m.MeanLow, m.MeanHigh)
}

// Query is one recommendation inference request: Size candidate items to be
// scored for one user, arriving at Arrival (relative to the start of the
// run).
type Query struct {
	ID      int
	Size    int
	Arrival time.Duration
}

// Generator produces a deterministic query stream from an arrival process
// and a size distribution. The same (processes, seed) pair always yields the
// same stream, which is what makes scheduler comparisons paired rather than
// merely statistical.
type Generator struct {
	Arrivals ArrivalProcess
	Sizes    SizeDist
	rng      *rand.Rand
	next     Query
}

// NewGenerator creates a generator with its own deterministic RNG.
func NewGenerator(arrivals ArrivalProcess, sizes SizeDist, seed int64) *Generator {
	g := &Generator{
		Arrivals: arrivals,
		Sizes:    sizes,
		rng:      rand.New(rand.NewSource(seed)),
	}
	g.next = Query{ID: 0, Size: sizes.Sample(g.rng), Arrival: arrivals.NextGap(g.rng)}
	return g
}

// Next returns the next query in the stream.
func (g *Generator) Next() Query {
	q := g.next
	g.next = Query{
		ID:      q.ID + 1,
		Size:    g.Sizes.Sample(g.rng),
		Arrival: q.Arrival + g.Arrivals.NextGap(g.rng),
	}
	return q
}

// Take returns the next n queries in the stream.
func (g *Generator) Take(n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = g.Next()
	}
	return qs
}
