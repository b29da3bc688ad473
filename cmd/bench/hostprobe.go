package main

import (
	"math"
	"sync"
	"time"
)

// The reference host is a shared 2-vCPU guest whose speed changes under
// the benchmark: for minutes at a time everything runs 20% slower, and now
// and then 2 to 10 times slower (another guest on the same machine). No
// statistic taken inside a 20 s run removes that, and it would make the
// same code look like a regression. So the harness measures the host
// alongside the program: hostProbe runs two small fixed pieces of work that
// belong to the benchmark, not to the repository, and the timed end-to-end
// metrics are divided by how fast it ran next to them.
//
// The two parts are a 96x96x96 float32 matrix product on each of w
// goroutines (arithmetic over data that lives in the L2 cache) and a token
// passed back and forth between two goroutines (the scheduler hand-off every
// served query pays several times). Over 95 runs spanning quiet and
// disturbed stretches, dividing by their geometric mean cut the run-to-run
// spread of closed-loop throughput from 0.23 to 0.06-0.13 and the shift
// between blocks of runs from 0.8 to 0.11; a gather loop over a 10 MB table
// swung ten-fold and made things worse, so there is none.
type hostProbe struct {
	w    int
	a, b [][]float32
}

const (
	probeDim   = 96
	probeBurst = 12 * time.Millisecond
	// Speeds of the two parts on the reference host when it is quiet, so
	// that a corrected metric equals the raw one there. They only set the
	// scale: on another host every corrected value moves by one constant
	// factor.
	refProductsPerSec = 2450 // per goroutine
	refHandoffsPerSec = 1.97e6
)

func newHostProbe(w int) *hostProbe {
	p := &hostProbe{w: w}
	for g := 0; g < w; g++ {
		a, b := make([]float32, probeDim*probeDim), make([]float32, probeDim*probeDim)
		for i := range a {
			a[i], b[i] = float32(i%7), float32(i%5)
		}
		p.a, p.b = append(p.a, a), append(p.b, b)
	}
	return p
}

// speed is how fast the host is running now, 1 being the quiet reference
// host. It takes two bursts of 12 ms.
func (p *hostProbe) speed() float64 {
	burst := probeBurst
	if smokeMode {
		burst = time.Millisecond
	}
	products := make([]int, p.w)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < p.w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c [probeDim * probeDim]float32
			for time.Since(start) < burst {
				product(c[:], p.a[g], p.b[g])
				products[g]++
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range products {
		total += n
	}
	compute := float64(total) / float64(p.w) / time.Since(start).Seconds() / refProductsPerSec

	ping, pong, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		for {
			select {
			case <-ping:
				pong <- struct{}{}
			case <-stop:
				return
			}
		}
	}()
	handoffs := 0
	start = time.Now()
	for time.Since(start) < burst {
		ping <- struct{}{}
		<-pong
		handoffs++
	}
	close(stop)
	handoff := float64(handoffs) / time.Since(start).Seconds() / refHandoffsPerSec
	return math.Sqrt(compute * handoff)
}

// product sets c to a*b, all probeDim square, row-major.
func product(c, a, b []float32) {
	clear(c)
	for i := 0; i < probeDim; i++ {
		crow := c[i*probeDim : (i+1)*probeDim]
		for k := 0; k < probeDim; k++ {
			aik := a[i*probeDim+k]
			brow := b[k*probeDim : (k+1)*probeDim]
			for j := range crow {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// around runs fn between two readings of the probe and returns the host's
// speed over it: the mean of the two.
func (p *hostProbe) around(fn func()) float64 {
	before := p.speed()
	fn()
	return (before + p.speed()) / 2
}
