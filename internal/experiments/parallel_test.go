package experiments

import (
	"reflect"
	"testing"
)

// TestParallelSweepMatchesSerial asserts the parallel sweep harness's core
// contract: a sweep fanned out over many workers produces a report and
// structured data byte-identical to the fully serial Workers=1 run. Run
// under -race it also exercises the worker pool for data races across the
// serving simulator, the schedulers, and the fleet layer.
func TestParallelSweepMatchesSerial(t *testing.T) {
	base := Quick()
	base.Queries = 400
	base.Warmup = 50
	base.RelTol = 0.05
	base.Models = []string{"DLRM-RMC1"}
	base.FleetNodes = 4
	base.FleetWindows = 2
	base.QueriesPerWindow = 150
	base.DistSamples = 5000

	serial := base
	serial.Workers = 1
	parallel := base
	parallel.Workers = 8

	type sweep struct {
		name string
		run  func(Options) (string, interface{})
	}
	sweeps := []sweep{
		{"fig9", func(o Options) (string, interface{}) { r, d := Fig9(o); return r.String(), d }},
		{"fig12c", func(o Options) (string, interface{}) { r, d := Fig12c(o); return r.String(), d }},
		{"fig14", func(o Options) (string, interface{}) { r, d := Fig14(o); return r.String(), d }},
		{"fig7", func(o Options) (string, interface{}) { r, d := Fig7(o); return r.String(), d }},
		{"ablation", func(o Options) (string, interface{}) { r, d := Ablation(o); return r.String(), d }},
	}
	for _, s := range sweeps {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			serialReport, serialData := s.run(serial)
			parallelReport, parallelData := s.run(parallel)
			if serialReport != parallelReport {
				t.Errorf("parallel report differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serialReport, parallelReport)
			}
			if !reflect.DeepEqual(serialData, parallelData) {
				t.Errorf("parallel data differs from serial:\nserial:   %+v\nparallel: %+v",
					serialData, parallelData)
			}
		})
	}
}

// TestFleetFiguresIndependentOfWorkers holds the offline fleet to its
// fan-in contract: each node's stream is seeded by its index and its
// latencies land in its slot, so Figs. 7 and 13 at quick fidelity render
// and return the same thing on one worker as on eight.
func TestFleetFiguresIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sims are slow")
	}
	figs := map[string]func(Options) (string, interface{}){
		"fig7":  func(o Options) (string, interface{}) { r, d := Fig7(o); return r.String(), d },
		"fig13": func(o Options) (string, interface{}) { r, d := Fig13(o); return r.String(), d },
	}
	for name, run := range figs {
		serial, parallel := Quick(), Quick()
		serial.Workers, parallel.Workers = 1, 8
		sr, sd := run(serial)
		pr, pd := run(parallel)
		if sr != pr {
			t.Errorf("%s: report differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", name, sr, pr)
		}
		if !reflect.DeepEqual(sd, pd) {
			t.Errorf("%s: data differs across worker counts:\n1 worker:  %+v\n8 workers: %+v", name, sd, pd)
		}
	}
}
