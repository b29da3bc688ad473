package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/deeprecinfra/deeprecsys/internal/workload"
)

// query is one scheduled request: due is its arrival offset from the start
// of the phase, size its candidate count.
type query struct {
	due  time.Duration
	size int
}

// sizeMix is a size distribution reduced to a sorted table of draws, so that
// it can be sampled by quantile.
type sizeMix []int

// mixDraws is the table size: enough that the production distribution's
// tail, one query in a thousand near 1000 candidates, is well resolved.
const mixDraws = 1 << 16

func newSizeMix(dist workload.SizeDist) sizeMix {
	rng := rand.New(rand.NewSource(1))
	mix := make(sizeMix, mixDraws)
	for i := range mix {
		mix[i] = dist.Sample(rng)
	}
	sort.Ints(mix)
	return mix
}

// mean is the distribution's mean query size.
func (m sizeMix) mean() float64 {
	total := 0
	for _, s := range m {
		total += s
	}
	return float64(total) / float64(len(m))
}

// draw returns n sizes as a stratified sample: one from each of n equal
// slices of the distribution, in an order the rng decides. Every phase of
// every run therefore offers the same mix of small and 1000-candidate
// queries, and a metric does not move because one seed happened to draw a
// heavier tail; what the seed varies is which query comes when.
func (m sizeMix) draw(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + rng.Float64()) / float64(n)
		out[i] = m[int(q*float64(len(m)))]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// schedule draws one open-loop dwell from the seed: Poisson arrivals at
// rate (the repo's own arrival process) carrying a stratified sample of the
// size mix. The program under test only ever sees the resulting
// (candidates, topN) pairs.
func schedule(rate float64, mix sizeMix, seed int64, dwell time.Duration) []query {
	rng := rand.New(rand.NewSource(seed))
	arrivals := workload.Poisson{RatePerSec: rate}
	var qs []query
	for due := arrivals.NextGap(rng); due < dwell; due += arrivals.NextGap(rng) {
		qs = append(qs, query{due: due})
	}
	for i, size := range mix.draw(len(qs), rng) {
		qs[i].size = size
	}
	return qs
}

// sample is the outcome of one query. Times are offsets from the start of
// the phase; sent < 0 marks a query the dwell ended before any sender was
// free to take.
type sample struct {
	id              int64
	due, sent, done time.Duration
	size            int
	ok              bool
}

// latencyMs is the latency a user saw: from the instant the query was due,
// not from when a sender got round to it, so a stall is charged to every
// query it delayed.
func (s sample) latencyMs() float64 { return float64(s.done-s.due) / 1e6 }

// doFunc performs query number id (unique across the run) and reports
// whether it succeeded with a correct reply.
type doFunc func(id int64, q query) bool

// runOpen plays an arrival schedule against do with exactly w sender
// goroutines, so at most w queries are in flight. One dispatcher walks the
// schedule and hands each query over when it falls due; if every sender is
// busy the query waits in the dispatcher, and that wait is part of its
// latency. The dwell's end stops dispatch; queries in flight finish.
func runOpen(qs []query, dwell time.Duration, w int, firstID int64, do doFunc) ([]sample, time.Time) {
	samples := make([]sample, len(qs))
	for i, q := range qs {
		samples[i] = sample{id: firstID + int64(i), due: q.due, sent: -1, size: q.size}
	}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &samples[i]
				s.sent = time.Since(start)
				s.ok = do(s.id, qs[i])
				s.done = time.Since(start)
			}
		}()
	}
	end := time.NewTimer(dwell)
	defer end.Stop()
dispatch:
	for i, q := range qs {
		if d := q.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		select {
		case work <- i:
		case <-end.C:
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return samples, start
}

// runClosed drives do with w closed-loop clients for the dwell: each sends
// its next query the moment the previous one returns. Sizes are consumed in
// order (wrapping if the system outruns them).
func runClosed(szs []int, dwell time.Duration, w int, firstID int64, do doFunc) ([]sample, time.Time) {
	per := make([][]sample, w)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= dwell {
					return
				}
				i := next.Add(1) - 1
				q := query{due: sent, size: szs[int(i)%len(szs)]}
				ok := do(firstID+i, q)
				per[g] = append(per[g], sample{id: firstID + i, due: sent, sent: sent, done: time.Since(start), size: q.size, ok: ok})
			}
		}(g)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, start
}
