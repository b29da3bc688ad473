package stats

import (
	"fmt"
	"sync"
)

// Window is a concurrency-safe sliding window over the most recent N
// observations. It backs *online* tail-latency tracking in the live serving
// path: many worker goroutines Add measured latencies while a controller
// and operator-facing stats reads concurrently estimate the current p95.
//
// Unlike the offline simulator's samples (every measured query of a
// single-threaded run), a Window bounds memory and deliberately forgets: the
// p95 it reports tracks the *current* operating point, which is what an
// online tail-driven controller must react to.
type Window struct {
	mu   sync.Mutex
	ring []float64
	next int // ring insertion cursor
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
	w.mu.Unlock()
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
// observations, or 0 when the window is empty. It selects on its own
// snapshot rather than copying and sorting it again.
func (w *Window) Percentile(p float64) float64 {
	snap := w.Snapshot()
	if len(snap) == 0 {
		return 0
	}
	return SelectPercentile(snap, p)
}

// Reset empties the window, retaining capacity.
func (w *Window) Reset() {
	w.mu.Lock()
	w.ring = w.ring[:0]
	w.next = 0
	w.mu.Unlock()
}
