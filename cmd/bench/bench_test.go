package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	mix := newSizeMix(workload.DefaultProduction())
	a := fmt.Sprint(schedule(300, mix, 7, 2*time.Second))
	b := fmt.Sprint(schedule(300, mix, 7, 2*time.Second))
	if a != b {
		t.Fatal("same seed gave two different schedules")
	}
	if c := fmt.Sprint(schedule(300, mix, 8, 2*time.Second)); a == c {
		t.Fatal("another seed gave the same schedule")
	}
}

func TestStratifiedDrawKeepsTheMix(t *testing.T) {
	mix := newSizeMix(workload.DefaultProduction())
	mean := func(seed int64) float64 {
		total := 0
		for _, q := range schedule(300, mix, seed, 2*time.Second) {
			total += q.size
		}
		return float64(total) / 600
	}
	// 600 independent draws from this heavy-tailed mix have a mean that
	// wanders by about 5%; the stratified sample holds it far closer (what
	// is left is the Poisson count, divided out here only roughly).
	for seed := int64(1); seed <= 5; seed++ {
		if got := mean(seed); math.Abs(got-mix.mean())/mix.mean() > 0.12 {
			t.Errorf("seed %d: mean size %.1f, mix mean %.1f", seed, got, mix.mean())
		}
	}
}

// A backend that stalls on its first query must not hide the stall: every
// query that fell due meanwhile is charged its wait (no coordinated
// omission), and the generator reports how late it ran.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	qs := make([]query, 20)
	for i := range qs {
		qs[i] = query{due: time.Duration(i) * time.Millisecond, size: 1}
	}
	stall := 60 * time.Millisecond
	samples, _ := runOpen(qs, time.Second, 1, 0, func(id int64, _ query) bool {
		if id == 0 {
			time.Sleep(stall)
		}
		return true
	})
	var lag []float64
	for i, s := range samples {
		if s.sent < 0 {
			t.Fatalf("query %d was never sent", i)
		}
		// Query i was due i ms in and could not start before the stall ended.
		if want := float64(stall-qs[i].due) / 1e6; s.latencyMs() < want {
			t.Errorf("query %d: latency %.1f ms hides the stall (want at least %.1f)", i, s.latencyMs(), want)
		}
		lag = append(lag, float64(s.sent-s.due)/1e6)
	}
	if p95 := percentile(sortedCopy(lag), 95); p95 < 30 {
		t.Errorf("generator lag p95 %.1f ms does not show the stall", p95)
	}
}

func TestOpenLoopStopsDispatchAtDwellEnd(t *testing.T) {
	qs := []query{{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond}}
	samples, _ := runOpen(qs, 20*time.Millisecond, 1, 0, func(int64, query) bool {
		time.Sleep(50 * time.Millisecond)
		return true
	})
	if samples[0].sent < 0 || samples[1].sent >= 0 || samples[2].sent >= 0 {
		t.Fatalf("want only the first query sent, got %+v", samples)
	}
	g := ladderRung(150, samples, 20*time.Millisecond)
	if g.Outstanding != 3 || !math.IsInf(g.P95ms, 1) {
		t.Errorf("unsent queries must count as misses: %+v", g)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 100}, {90, 90}, {1, 10}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile should read 0")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three windows = %v, want the middle one", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.query", Start: 0, End: 100},
		{ID: 1, Name: "bench.wait", Parent: "bench.query", Start: 0, End: 30},
		{ID: 1, Name: "svc.submit", Parent: "bench.query", Start: 30, End: 100},
		{ID: 1, Name: "rpc.handle", Parent: "svc.submit", Start: 40, End: 90},
		{ID: 2, Name: "svc.submit", Parent: "bench.query", Start: 0, End: 10},
	}
	self := selfTimes(spans)
	want := map[string][]float64{
		"bench.query": {0}, "bench.wait": {30}, "svc.submit": {20, 10}, "rpc.handle": {50},
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestTracerRecordsOnlyWhileEnabled(t *testing.T) {
	var off *tracer
	off.add(1, "x", "", 0, 1) // a nil tracer is the untraced pass
	tr := newTracer()
	tr.add(1, "x", "", 0, 1)
	tr.enable(true)
	tr.add(2, "x", "", 0, 1)
	if got := tr.snapshot(); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("spans = %+v, want only the one added while enabled", got)
	}
}

func TestSlaQPSRule(t *testing.T) {
	pass := func(rate float64) rung { return rung{Rate: rate, Offered: rate, P95ms: 50, Achieved: rate} }
	slow := func(rate float64) rung { r := pass(rate); r.P95ms = 150; return r }
	for _, c := range []struct {
		name   string
		ladder []rung
		want   float64
		capped bool
	}{
		{"knee at r3", []rung{pass(300), pass(460), pass(505), slow(555)}, 505, false},
		{"capped", []rung{pass(300), pass(460), pass(505), pass(555)}, 555, true},
		{"none", []rung{slow(300), slow(460), slow(505), slow(555)}, 0, false},
		{"a lucky high rung does not cap", []rung{pass(300), slow(460), pass(505), slow(555)}, 505, false},
		{"falling behind is a miss", []rung{pass(300), {Rate: 460, Offered: 460, P95ms: 50, Achieved: 440}}, 300, false},
		{"a backlog is a miss", []rung{pass(300), {Rate: 460, Offered: 460, P95ms: 50, Achieved: 460, Outstanding: 5}}, 300, false},
		{"a failed query at the percentile is a miss", []rung{pass(300), {Rate: 460, Offered: 460, P95ms: math.Inf(1), Achieved: 460}}, 300, false},
	} {
		got, capped := slaQPS(c.ladder, 100, 2)
		if got != c.want || capped != c.capped {
			t.Errorf("%s: sla_qps %v capped %v, want %v %v", c.name, got, capped, c.want, c.capped)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sat_qps", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v} }
	for _, c := range []struct {
		d            metricDef
		base, change []float64
		want         string
	}{
		{lower, steady(10), steady(10.5), "ok"},
		{lower, steady(10), steady(12), "worse"},
		{lower, steady(10), steady(5), "ok"},
		{higher, steady(100), steady(85), "worse"},
		{higher, steady(100), steady(120), "ok"},
		{lower, []float64{5, 10, 15, 20}, steady(30), "unresolved"},
	} {
		if _, got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.change, got, c.want)
		}
	}
}

// The metric lists the program emits and the ones BENCHMARK.json declares
// to the driver must be the same lists.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", doc.PerLayer, perLayer)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}

// Smoke mode runs every workload end to end in a fraction of a second each;
// the numbers mean nothing, but every phase, check and identity runs.
func TestSmokeAllWorkloads(t *testing.T) {
	smokeMode = true
	defer func() { smokeMode = false }()
	for _, name := range workloadNames {
		rep, err := runWorkload(name, 2, 1, smokeBudget, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.correct() {
			t.Errorf("%s: failed %d, broken %v", name, rep.failed, rep.broken)
		}
		if _, err := rep.contractLine(false); err != nil {
			t.Error(err)
		}
	}
	// The traced pass of the wire workload drives every seam and the ladder.
	rep, err := runWorkload("ncf-small-wire", 2, 1, smokeBudget, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Errorf("traced: failed %d, broken %v", rep.failed, rep.broken)
	}
	for _, d := range perLayer {
		if _, ok := rep.vals[d.Name]; !ok && d.Name != "sla_qps" {
			t.Errorf("traced ncf-small-wire did not measure %s", d.Name)
		}
	}
	var buf bytes.Buffer
	path := t.TempDir() + "/results.json"
	if err := rep.appendRecord(path, readEnv(), 1, smokeBudget, true); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&buf, path, path); err != nil {
		t.Fatal(err)
	}
}
