package stats

import (
	"fmt"
	"sync"
)

// Recorder accumulates float64 observations for later summarization. It is
// the building block of latency accounting in the serving engine: one
// Recorder per metric (query latency, queueing delay, service time, ...).
//
// Recorder is not safe for concurrent use; the discrete-event simulator is
// single-threaded by construction.
type Recorder struct {
	samples []float64
}

// NewRecorder returns a Recorder with capacity hint n.
func NewRecorder(n int) *Recorder {
	return &Recorder{samples: make([]float64, 0, n)}
}

// Add records one observation.
func (r *Recorder) Add(x float64) { r.samples = append(r.samples, x) }

// Samples returns the raw observations. The returned slice aliases the
// recorder's storage; callers must not mutate it.
func (r *Recorder) Samples() []float64 { return r.samples }

// Summary returns the Summary of the recorded observations.
func (r *Recorder) Summary() Summary { return Summarize(r.samples) }

// Window is a concurrency-safe sliding window over the most recent N
// observations. It backs *online* tail-latency tracking in the live serving
// path: many worker goroutines Add measured latencies while a controller
// and operator-facing stats reads concurrently estimate the current p95.
//
// Unlike Recorder (unbounded, single-threaded, for offline simulation
// runs), a Window bounds memory and deliberately forgets: the p95 it
// reports tracks the *current* operating point, which is what an online
// tail-driven controller must react to.
type Window struct {
	mu    sync.Mutex
	ring  []float64
	next  int    // ring insertion cursor
	total uint64 // lifetime observation count
}

// NewWindow returns a Window holding the most recent n observations.
func NewWindow(n int) *Window {
	if n < 1 {
		panic(fmt.Sprintf("stats: window size %d < 1", n))
	}
	return &Window{ring: make([]float64, 0, n)}
}

// Add records one observation, evicting the oldest when the window is full.
func (w *Window) Add(x float64) {
	w.mu.Lock()
	if len(w.ring) < cap(w.ring) {
		w.ring = append(w.ring, x)
	} else {
		w.ring[w.next] = x
	}
	w.next = (w.next + 1) % cap(w.ring)
	w.total++
	w.mu.Unlock()
}

// Count returns the lifetime number of observations (not the window size).
func (w *Window) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Len returns the number of observations currently in the window.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.ring)
}

// Snapshot copies the windowed observations (unordered).
func (w *Window) Snapshot() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]float64, len(w.ring))
	copy(out, w.ring)
	return out
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the windowed
// observations, or 0 when the window is empty.
func (w *Window) Percentile(p float64) float64 {
	snap := w.Snapshot()
	if len(snap) == 0 {
		return 0
	}
	return Percentile(snap, p)
}

// Reset empties the window, retaining capacity and the lifetime count.
func (w *Window) Reset() {
	w.mu.Lock()
	w.ring = w.ring[:0]
	w.next = 0
	w.mu.Unlock()
}
