package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// servingSpec is one serving workload. Rates are absolute queries per
// second, calibrated on the 2-vCPU reference host and frozen: rates[0] is
// r1, where latency is read; rates[1..3] straddle the knee a factor 1.10
// apart, for the sla_qps ladder.
type servingSpec struct {
	name   string
	model  string
	dist   workload.SizeDist
	wire   bool
	slaMs  float64
	rates  [4]float64
	golden []pin
}

var servingSpecs = []servingSpec{
	{
		name: "rmc1-prod", model: "DLRM-RMC1", dist: workload.DefaultProduction(), slaMs: 100,
		rates:  [4]float64{330, 500, 550, 605},
		golden: []pin{{24, 0x3f141a42}, {14, 0x3f0d1311}, {29, 0x3f0b67cb}, {19, 0x3f0a0f7f}, {52, 0x3f0950d5}},
	},
	{
		name: "rmc3-prod", model: "DLRM-RMC3", dist: workload.DefaultProduction(), slaMs: 100,
		rates:  [4]float64{60, 91, 100, 110},
		golden: []pin{{37, 0x3f06e055}, {59, 0x3f05d910}, {53, 0x3f0483a2}, {19, 0x3f02e622}, {52, 0x3f02d805}},
	},
	{
		name: "ncf-small-wire", model: "NCF", dist: workload.Fixed{Size: 32}, wire: true, slaMs: 5,
		rates:  [4]float64{800, 1270, 1400, 1540},
		golden: []pin{{23, 0x3effdb60}, {38, 0x3effc973}, {17, 0x3effbb27}, {12, 0x3efef51f}, {3, 0x3efeef97}},
	},
}

// warmQueries is how many closed-loop queries each set-up serves before
// anything is measured: enough to grow every lane's scratch arena and open
// the keep-alive connections. It is a count, not a time, so set-up time
// tracks how fast the system is.
const warmQueries = 64

// setupRepeats is how many times a run sets the workload up: three in an
// untraced run, where setup_s is their median and the last stack built is
// the one measured; once where set-up time is not reported.
func setupRepeats(traced bool) int {
	if traced || smokeMode {
		return 1
	}
	return 3
}

// servingRun is the state of one serving workload run.
type servingRun struct {
	spec   servingSpec
	mix    sizeMix
	w      int
	seed   int64
	st     *stack
	tr     *tracer // nil in the untraced pass
	nextID int64

	attempted, failed int
	okSeen            uint64
}

func (r *servingRun) do(id int64, q query) bool {
	var start int64
	traced := r.tr.on()
	if traced {
		start = r.tr.now()
	}
	inner, err := r.st.submit(context.Background(), id, q.size)
	if traced && err == nil {
		end := r.tr.now()
		r.tr.add(id, "svc.submit", "bench.query", start, end)
		if !r.spec.wire {
			r.tr.add(id, "live.submit", "svc.submit", end-int64(inner), end)
		}
	}
	return err == nil
}

// tally folds a phase's samples into the run's operation counts and
// returns them unchanged.
func (r *servingRun) tally(samples []sample) []sample {
	for _, s := range samples {
		if s.sent < 0 {
			continue
		}
		r.attempted++
		if s.ok {
			r.okSeen++
		} else {
			r.failed++
		}
	}
	r.nextID += int64(len(samples))
	return samples
}

// setup builds the stack and warms it, returning how long that took.
func (r *servingRun) setup() (time.Duration, error) {
	start := time.Now()
	var err error
	switch {
	case r.spec.wire && r.tr != nil:
		r.st, err = startWireTraced(r.spec, r.w, r.tr)
	case r.spec.wire:
		r.st, err = startWire(r.spec, r.w)
	default:
		r.st, err = startInProcess(r.spec, r.w)
	}
	if err != nil {
		return 0, err
	}
	// Every warm query is due at once, so the senders serve them back to back.
	qs := make([]query, scaled(warmQueries))
	for i, size := range r.mix.draw(len(qs), rand.New(rand.NewSource(r.seed))) {
		qs[i].size = size
	}
	warm, _ := runOpen(qs, time.Hour, r.w, r.nextID, r.do)
	r.tally(warm)
	return time.Since(start), nil
}

// open runs one open-loop dwell at rate.
func (r *servingRun) open(rate float64, dwell time.Duration, phase int) []sample {
	runtime.GC()
	qs := schedule(rate, r.mix, r.seed*1000+int64(phase), dwell)
	samples, start := runOpen(qs, dwell, r.w, r.nextID, r.do)
	r.spanQueries(samples, start)
	return r.tally(samples)
}

// sat runs one closed-loop saturation slice and returns the candidate items
// per second completed inside it. Items, not queries, so that a slice which
// happened to draw small queries does not read as a faster system.
func (r *servingRun) sat(dwell time.Duration, phase int) (itemsPerSec float64, n int) {
	runtime.GC()
	// More sizes than any system here can serve in the dwell.
	szs := r.mix.draw(int(dwell.Seconds()*8000)+r.w, rand.New(rand.NewSource(r.seed*1000+int64(phase))))
	samples, start := runClosed(szs, dwell, r.w, r.nextID, r.do)
	r.spanQueries(samples, start)
	items := 0
	for _, s := range r.tally(samples) {
		if s.ok && s.done <= dwell {
			items += s.size
			n++
		}
	}
	return float64(items) / dwell.Seconds(), n
}

// spanQueries records the harness's own spans for a traced phase: the
// query from due time to reply, and its wait for a free sender.
func (r *servingRun) spanQueries(samples []sample, start time.Time) {
	if !r.tr.on() {
		return
	}
	base := int64(start.Sub(r.tr.epoch))
	for _, s := range samples {
		if s.sent < 0 || !s.ok {
			continue
		}
		r.tr.add(s.id, "bench.query", "", base+int64(s.due), base+int64(s.done))
		r.tr.add(s.id, "bench.wait", "bench.query", base+int64(s.due), base+int64(s.sent))
	}
}

// latencies returns the latency from due time of every query a phase sent,
// ascending, a failed query counting as an unbounded latency.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		switch {
		case s.sent < 0:
		case s.ok:
			out = append(out, s.latencyMs())
		default:
			out = append(out, math.Inf(1))
		}
	}
	sort.Float64s(out)
	return out
}

// windowStats returns each latency window's p50 and p95 and the smallest
// window's sample count.
func windowStats(wins [][]sample) (p50s, p95s []float64, minCount int) {
	minCount = math.MaxInt
	for _, win := range wins {
		lat := latencies(win)
		p50s = append(p50s, percentile(lat, 50))
		p95s = append(p95s, percentile(lat, 95))
		minCount = min(minCount, len(lat))
	}
	return p50s, p95s, minCount
}

// ladderRung reduces one open dwell to what the sla_qps rule reads. Queries
// that fell due but were never sent are misses, like failures.
func ladderRung(rate float64, samples []sample, dwell time.Duration) rung {
	lat := latencies(samples)
	completed, outstanding := 0, 0
	for _, s := range samples {
		if s.sent >= 0 && s.ok && s.done <= dwell {
			completed++
		} else {
			outstanding++
		}
		if s.sent < 0 {
			lat = append(lat, math.Inf(1)) // stays sorted: +Inf is the maximum
		}
	}
	return rung{
		Rate: rate, Offered: float64(len(samples)) / dwell.Seconds(), P95ms: percentile(lat, 95),
		Achieved: float64(completed) / dwell.Seconds(), Outstanding: outstanding,
	}
}

// finite replaces an unbounded latency (a failed query reached the
// percentile) with a value JSON can carry.
func finite(ms float64) float64 {
	if math.IsInf(ms, 1) {
		return 1e9
	}
	return ms
}

func spreadPct(xs []float64) float64 {
	s := sortedCopy(xs)
	if med := median(s); med > 0 {
		return (s[len(s)-1] - s[0]) / med * 100
	}
	return 0
}

// rounds is how many times a run alternates a latency window with a
// saturation slice (two in smoke mode). Every metric is the median over the
// rounds, so each samples the whole run and one slow stretch of the host
// moves neither.
func rounds() int {
	if smokeMode {
		return 2
	}
	return 5
}

// runServing measures one serving workload. Untraced it reports the
// end-to-end metrics from five rounds of an open-loop window at r1 (0.12 of
// the budget each) and a closed-loop saturation slice (0.08 each). Traced it
// runs the layer ladder, five traced r1 windows, the four-rung sla_qps
// ladder, and five pairs of untraced and traced saturation slices, and
// reports the per-layer metrics.
func runServing(spec servingSpec, w int, seed int64, budget time.Duration, traced bool, out *report) error {
	r := &servingRun{spec: spec, mix: newSizeMix(spec.dist), w: w, seed: seed}
	if traced {
		r.tr = newTracer()
		out.tracer = r.tr
	}
	probe := newHostProbe(w)
	var setups []float64
	for i := 0; i < setupRepeats(traced); i++ {
		if r.st != nil {
			_, broken := r.st.finish(r.okSeen)
			out.broken = append(out.broken, broken...)
			r.okSeen = 0
		}
		var d time.Duration
		var err error
		speed := probe.around(func() { d, err = r.setup() })
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds()*speed)
	}
	out.set("setup_s", median(setups), len(setups))

	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	var wins [][]sample
	var raw, corrected, speeds, withSpans []float64
	satCount := 0
	// sat runs one saturation slice between two readings of the host probe.
	sat := func(dwell time.Duration, phase int) {
		var items float64
		var n int
		speed := probe.around(func() { items, n = r.sat(dwell, phase) })
		raw, corrected, speeds = append(raw, items), append(corrected, items/speed), append(speeds, speed)
		satCount += n
	}
	if !traced {
		for i := 0; i < rounds(); i++ {
			wins = append(wins, r.open(spec.rates[0], share(0.12), 10+i))
			sat(share(0.08), 20+i)
		}
	} else {
		if err := runLadder(w, out); err != nil {
			return err
		}
		r.tr.enable(true)
		for i := 0; i < rounds(); i++ {
			wins = append(wins, r.open(spec.rates[0], share(0.05), 10+i))
		}
		r.tr.enable(false)

		var ladder []rung
		for i, rate := range spec.rates {
			dwell := share(0.125)
			ladder = append(ladder, ladderRung(rate, r.open(rate, dwell, 30+i), dwell))
		}
		qps, capped := slaQPS(ladder, spec.slaMs, w)
		out.set("sla_qps", qps, len(ladder))
		out.note("sla_qps ladder (SLA %.0f ms): %s%s", spec.slaMs, fmtLadder(ladder), map[bool]string{true: "capped", false: ""}[capped])

		for i := 0; i < rounds(); i++ {
			sat(share(0.025), 20+i)
			r.tr.enable(true)
			items, _ := r.sat(share(0.025), 40+i)
			r.tr.enable(false)
			withSpans = append(withSpans, items)
		}
		out.set("live.items_per_s", median(withSpans), satCount)
		out.set("bench.trace_overhead_pct", (median(raw)-median(withSpans))/median(raw)*100, satCount)
		r.spanMetrics(out)
	}
	r.latencyMetrics(wins, out)
	out.set("sat_qps", median(corrected)/r.mix.mean(), satCount)
	out.set("sat_qps.raw", median(raw)/r.mix.mean(), satCount)
	out.set("bench.host_speed", median(speeds), len(speeds))
	out.note("sat rounds (items/s): %.0f at host speeds %.2f", raw, speeds)

	counts, broken := r.st.finish(r.okSeen)
	out.broken = append(out.broken, broken...)
	for name, v := range counts {
		out.set(name, v, 1)
	}
	out.attempted += r.attempted
	out.failed += r.failed
	out.set("fail_share", float64(r.failed)/float64(r.attempted), r.attempted)
	return nil
}

func fmtLadder(ladder []rung) string {
	s := ""
	for _, g := range ladder {
		s += fmt.Sprintf("[%.0f/s p95 %.1f ms achieved %.0f/s left %d] ", g.Rate, finite(g.P95ms), g.Achieved, g.Outstanding)
	}
	return s
}

// latencyMetrics reduces the r1 windows: each metric is the median over
// the windows of that window's percentile.
func (r *servingRun) latencyMetrics(wins [][]sample, out *report) {
	p50s, p95s, n := windowStats(wins)
	out.set("p50_ms", finite(median(p50s)), n)
	out.set("p95_ms", finite(median(p95s)), n)
	out.set("bench.window_spread_pct", spreadPct(p50s), len(wins))
	out.note("latency rounds: p50 %.3f ms, p95 %.3f ms", p50s, p95s)
	var lag []float64
	chunks, sent := 0, 0
	for _, win := range wins {
		for _, s := range win {
			if s.sent >= 0 {
				lag = append(lag, float64(s.sent-s.due)/1e6)
				chunks += (s.size + batchSize - 1) / batchSize
				sent++
			}
		}
	}
	out.set("bench.gen_lag_ms.p95", percentile(sortedCopy(lag), 95), len(lag))
	out.set("live.chunks_per_query", float64(chunks)/float64(sent), sent)
}

// spanMetrics reduces the traced pass's spans to the per-layer numbers and
// checks that the harness's spans nest to clock resolution.
func (r *servingRun) spanMetrics(out *report) {
	spans := r.tr.snapshot()
	dur, self := durations(spans), selfTimes(spans)
	pct := func(xs []float64, p, scale float64) float64 { return percentile(sortedCopy(xs), p) / scale }

	// bench.query's self time is what neither the wait nor the submit
	// covers: the gap between two clock reads a few instructions apart. A
	// preempted sender can stretch one gap; a bookkeeping error (a span on
	// the wrong query or phase) stretches them all.
	gaps := self["bench.query"]
	wide := 0
	for _, gap := range gaps {
		if math.Abs(gap) > float64(100*time.Microsecond) {
			wide++
		}
	}
	if wide*100 > len(gaps) {
		out.broken = append(out.broken, fmt.Sprintf("spans: bench.wait + svc.submit misses bench.query by over 100 us on %d of %d queries", wide, len(gaps)))
	}
	lv := dur["live.submit"]
	out.set("live.submit_ms.p50", pct(lv, 50, 1e6), len(lv))
	out.set("live.submit_ms.p95", pct(lv, 95, 1e6), len(lv))
	if !r.spec.wire {
		return
	}
	rtt := dur["svc.submit"]
	out.set("rpc.rtt_ms.p50", pct(rtt, 50, 1e6), len(rtt))
	out.set("rpc.rtt_ms.p95", pct(rtt, 95, 1e6), len(rtt))
	out.set("rpc.client_self_us.p50", pct(self["svc.submit"], 50, 1e3), len(rtt))
	out.set("rpc.server_self_us.p50", pct(self["rpc.handle"], 50, 1e3), len(self["rpc.handle"]))
	out.set("fleet.self_us.p50", pct(self["fleet.submit"], 50, 1e3), len(self["fleet.submit"]))
	out.set("fleet.self_us.p95", pct(self["fleet.submit"], 95, 1e3), len(self["fleet.submit"]))
}
