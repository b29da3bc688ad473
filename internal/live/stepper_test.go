package live

import (
	"testing"
	"time"
)

// TestStepperTable drives the one feedback state machine tick by tick —
// no goroutine, ticker or sleep — through every branch of its decision
// rule and its settle/reset discipline.
func TestStepperTable(t *testing.T) {
	const sla = 100 * time.Millisecond
	const (
		over  = 0.150 // p95 above the SLA
		band  = 0.070 // inside the hold band [headroomFrac·SLA, SLA]
		under = 0.020 // below headroomFrac·SLA
		many  = minTuneSamples
		few   = minTuneSamples - 1
	)
	type tick struct {
		sig    Signal
		pinned bool // the actuator is at its limit: act reports no move
		dir    int  // want: Tick's decision
		acted  int  // want: direction act was called with (0 = not called)
		resets int  // want: window resets during the tick
	}
	cases := []struct {
		name  string
		ticks []tick
	}{
		{"hold band: neither breach nor headroom", []tick{
			{sig: Signal{P95: band, Samples: many}},
			{sig: Signal{P95: sla.Seconds(), Samples: many}}, // exactly at the SLA holds
		}},
		{"too few samples make no latency decision", []tick{
			{sig: Signal{P95: over, Samples: few}},
			{sig: Signal{P95: under, Samples: few}},
		}},
		{"breach moves, the settle tick is skipped and resets the window", []tick{
			{sig: Signal{P95: over, Samples: many}, dir: -1, acted: -1, resets: 1},
			{sig: Signal{P95: over, Samples: many}, resets: 1}, // settling: no decision
			{sig: Signal{P95: over, Samples: many}, dir: -1, acted: -1, resets: 1},
		}},
		{"headroom moves the other way, same discipline", []tick{
			{sig: Signal{P95: under, Samples: many}, dir: +1, acted: +1, resets: 1},
			{sig: Signal{P95: under, Samples: many}, resets: 1},
			{sig: Signal{P95: band, Samples: many}},
		}},
		{"shedding is a breach even with too few samples", []tick{
			{sig: Signal{Samples: 0, Shed: 3}, dir: -1, acted: -1, resets: 1},
		}},
		{"a pinned actuator does not settle", []tick{
			{sig: Signal{P95: over, Samples: many}, pinned: true, dir: -1, acted: -1},
			{sig: Signal{P95: over, Samples: many}, pinned: true, dir: -1, acted: -1},
			{sig: Signal{P95: under, Samples: many}, pinned: true, dir: +1, acted: +1},
		}},
		{"headroom is refused while shedding", []tick{
			{sig: Signal{P95: under, Samples: many, Shed: 1}, pinned: true, dir: -1, acted: -1},
			{sig: Signal{P95: under, Samples: many, Shed: 1}, dir: +1, acted: +1, resets: 1},
		}},
		{"the shed baseline advances on settle ticks too", []tick{
			{sig: Signal{Shed: 5}, dir: -1, acted: -1, resets: 1},
			{sig: Signal{Shed: 9}, resets: 1}, // settling; 9 becomes the baseline
			{sig: Signal{P95: band, Samples: many, Shed: 9}},
		}},
		// A RemoteReplica whose server restarted reports fresh, smaller
		// counters. The parent's autoscaler subtracted them as uint64: the
		// difference wrapped to ~2^64 and every following tick read as a
		// breach, growing the fleet to Max.
		{"a regressing shed counter reads as no growth, once", []tick{
			{sig: Signal{P95: band, Samples: many, Shed: 100}, pinned: true, dir: -1, acted: -1},
			{sig: Signal{P95: band, Samples: many, Shed: 3}},
			{sig: Signal{P95: band, Samples: many, Shed: 3}},
			{sig: Signal{P95: band, Samples: many, Shed: 4}, dir: -1, acted: -1, resets: 1},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := Stepper{SLA: sla}
			for i, tk := range c.ticks {
				acted, resets := 0, 0
				dir := st.Tick(tk.sig,
					func(dir int) bool { acted = dir; return !tk.pinned },
					func() { resets++ })
				if dir != tk.dir || acted != tk.acted || resets != tk.resets {
					t.Errorf("tick %d: dir %+d acted %+d resets %d, want dir %+d acted %+d resets %d",
						i, dir, acted, resets, tk.dir, tk.acted, tk.resets)
				}
			}
		})
	}
}

// TestStepperWithoutWindow: the autoscaler has no window to reset and
// passes nil; the settle tick must still be skipped.
func TestStepperWithoutWindow(t *testing.T) {
	st := Stepper{SLA: time.Second}
	moves := 0
	act := func(int) bool { moves++; return true }
	for i := 0; i < 4; i++ {
		st.Tick(Signal{Shed: uint64(i + 1)}, act, nil)
	}
	if moves != 2 {
		t.Errorf("4 breaching ticks moved %d times, want 2 (every other tick settles)", moves)
	}
}
