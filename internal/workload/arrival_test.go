package workload

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// meanRate drives a process for n arrivals and returns the realized mean
// rate in queries/sec.
func meanRate(t *testing.T, p ArrivalProcess, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	for i := 0; i < n; i++ {
		gap := p.NextGap(rng)
		if gap < 0 {
			t.Fatalf("negative gap %v at arrival %d", gap, i)
		}
		total += gap
	}
	return float64(n) / total.Seconds()
}

func TestDiurnalArrivalsMeanRate(t *testing.T) {
	// Over whole periods the sinusoid averages out to the base rate.
	d := &DiurnalArrivals{BaseQPS: 200, Amplitude: 0.5, Period: 10 * time.Second}
	got := meanRate(t, d, 20000, 1)
	if got < 160 || got > 240 {
		t.Errorf("diurnal mean rate = %.1f qps, want ~200", got)
	}
}

func TestDiurnalArrivalsRateCurve(t *testing.T) {
	d := &DiurnalArrivals{BaseQPS: 100, Amplitude: 0.5, Period: 24 * time.Hour}
	if r := d.RateAt(0); r < 99.9 || r > 100.1 {
		t.Errorf("rate at phase 0 = %.2f, want 100", r)
	}
	if r := d.RateAt(6 * time.Hour); r < 149 || r > 151 {
		t.Errorf("rate at peak = %.2f, want 150", r)
	}
	if r := d.RateAt(18 * time.Hour); r < 49 || r > 51 {
		t.Errorf("rate at trough = %.2f, want 50", r)
	}
}

func TestDiurnalArrivalsRateOscillates(t *testing.T) {
	d := &DiurnalArrivals{BaseQPS: 1000, Amplitude: 0.3, Period: 24 * time.Hour}
	peak := d.RateAt(6 * time.Hour)    // sin peaks a quarter into the cycle
	trough := d.RateAt(18 * time.Hour) // and troughs at three quarters
	if peak <= 1200 || peak > 1300 {
		t.Errorf("peak rate %v, want ~1300", peak)
	}
	if trough >= 800 || trough < 700 {
		t.Errorf("trough rate %v, want ~700", trough)
	}
	if got := d.RateAt(0); got != 1000 {
		t.Errorf("rate at t=0 = %v, want base 1000", got)
	}
}

func TestFlashRateCurve(t *testing.T) {
	f := &Flash{BaseQPS: 50, Mult: 10, Start: 10 * time.Second, Ramp: 2 * time.Second,
		Hold: 5 * time.Second, Decay: 2 * time.Second}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 50},
		{9 * time.Second, 50},
		{11 * time.Second, 275}, // halfway up the ramp
		{13 * time.Second, 500},
		{16 * time.Second, 500},
		{18 * time.Second, 275}, // halfway down the decay
		{30 * time.Second, 50},
	}
	for _, c := range cases {
		if got := f.RateAt(c.at); got < c.want-1 || got > c.want+1 {
			t.Errorf("flash rate at %v = %.1f, want %.1f", c.at, got, c.want)
		}
	}
}

func TestFlashBurstsDuringSpike(t *testing.T) {
	// The realized stream must be much denser inside the spike window.
	f := &Flash{BaseQPS: 20, Mult: 20, Start: 5 * time.Second, Ramp: time.Second,
		Hold: 4 * time.Second, Decay: time.Second}
	rng := rand.New(rand.NewSource(7))
	var at time.Duration
	before, during := 0, 0
	for i := 0; i < 3000; i++ {
		at += f.NextGap(rng)
		switch {
		case at < 5*time.Second:
			before++
		case at >= 6*time.Second && at < 10*time.Second:
			during++
		}
		if at > 12*time.Second {
			break
		}
	}
	// ~20 qps for 5 s vs ~400 qps for 4 s: during should dwarf before.
	if during < 5*before {
		t.Errorf("flash spike not visible: %d arrivals before vs %d during", before, during)
	}
}

func TestMMPPMeanRateBetweenStates(t *testing.T) {
	// Equal sojourns: the long-run rate is the average of the two states.
	m := &MMPP{LowQPS: 50, HighQPS: 450, MeanLow: time.Second, MeanHigh: time.Second}
	got := meanRate(t, m, 30000, 3)
	if got < 180 || got > 320 {
		t.Errorf("mmpp mean rate = %.1f qps, want ~250", got)
	}
}

func TestTimeVaryingArrivalsDeterministic(t *testing.T) {
	specs := []string{
		"diurnal:0.5,30s",
		"flash:10,2s,500ms,2s,500ms",
		"mmpp:8,2s,500ms",
	}
	for _, spec := range specs {
		a, err := ParseArrivals(spec, 100)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		b, err := ParseArrivals(spec, 100)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		ga := NewGenerator(a, Fixed{Size: 10}, 42).Take(500)
		gb := NewGenerator(b, Fixed{Size: 10}, 42).Take(500)
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("%s: stream diverges at query %d: %+v vs %+v", spec, i, ga[i], gb[i])
			}
		}
	}
}

func TestParseArrivalsTimeVarying(t *testing.T) {
	good := map[string]string{
		"diurnal:0.3,1m":            "diurnal(",
		"flash:10,5s,1s,5s,2s":      "flash(",
		"mmpp:8,5s,1s":              "mmpp(",
		"flash:1,0s,0s,0s,0s":       "flash(", // mult 1: a degenerate but legal constant rate
		"diurnal:0,24h":             "diurnal(",
		"mmpp:1,1s,1s":              "mmpp(",
		"flash: 2 , 1s, 1s, 1s, 1s": "flash(",
	}
	for spec, prefix := range good {
		p, err := ParseArrivals(spec, 50)
		if err != nil {
			t.Errorf("%q rejected: %v", spec, err)
			continue
		}
		if !strings.HasPrefix(p.Name(), prefix) {
			t.Errorf("%q parsed to %q, want prefix %q", spec, p.Name(), prefix)
		}
	}
	bad := []string{
		"diurnal",               // missing params
		"diurnal:1.0,1m",        // amplitude out of range
		"diurnal:0.5,-1m",       // negative period
		"diurnal:0.5",           // missing period
		"flash:10",              // missing durations
		"flash:0.5,1s,1s,1s,1s", // multiplier < 1
		"flash:2,1s,0s,0s,0s",   // no spike extent
		"flash:2,1s,1s,1s",      // wrong arity
		"mmpp:0.5,1s,1s",        // multiplier < 1
		"mmpp:2,0s,1s",          // zero sojourn
		"mmpp:2,1s",             // wrong arity
		"poisson:5",             // poisson takes no parameter
		"uniform:5",             // uniform takes no parameter
	}
	for _, spec := range bad {
		if _, err := ParseArrivals(spec, 50); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}
