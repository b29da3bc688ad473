package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
)

// The histogram's buckets are log-linear: 2^subBits per power of two over
// [2^minExp, 2^maxExp) seconds (0.95 µs to 1,024 s), 960 in all, with
// values outside that range counted in the end buckets (zero and negatives
// in the first, NaN in the last). A bucket holds the values whose exponent
// and top subBits mantissa bits agree, so it is at most 2^-subBits of any
// value in it wide, and a percentile reports bucket midpoints.
//
// The bound: for in-range samples sorted as s and rank r = p/100·(n−1),
// Percentile(p) lies in [s[⌊r⌋]·(1−2⁻⁵), s[⌈r⌉]·(1+2⁻⁵)] — the two ranks
// Percentile of the samples interpolates between, each widened by one
// bucket.
const (
	subBits        = 5
	minExp, maxExp = -20, 10
	buckets        = (maxExp - minExp) << subBits
	// firstBucket is the top bits (exponent and subBits of mantissa) of
	// 2^minExp: a bucket's index is its values' top bits minus this.
	firstBucket = (1023 + minExp) << subBits
)

// bucket returns the histogram bucket x is counted in: its top bits,
// clamped to the range's end buckets (max maps negatives to 0 and keeps
// NaN, whose bits lie above +Inf's).
func bucket(x float64) uint16 {
	top := math.Float64bits(max(x, 0)) >> (52 - subBits)
	return uint16(min(max(top, firstBucket), firstBucket+buckets-1) - firstBucket)
}

// Hist is a latency distribution as counts per bucket (seconds, bucketed as
// above). It is a value of fixed size: a snapshot is a copy, and the
// distribution of several windows together is their Hists added.
type Hist struct {
	n      uint32
	counts [buckets]uint32
}

// Add adds o's counts to h's.
func (h *Hist) Add(o Hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Count returns the number of observations in h.
func (h *Hist) Count() int { return int(h.n) }

// MarshalJSON writes h as its nonzero buckets in ascending order, each a
// [bucket, count] pair: at most one entry per bucket, so any window encodes
// in at most 960 pairs.
func (h Hist) MarshalJSON() ([]byte, error) {
	pairs := [][2]uint32{}
	for i, c := range h.counts {
		if c > 0 {
			pairs = append(pairs, [2]uint32{uint32(i), c})
		}
	}
	return json.Marshal(pairs)
}

// UnmarshalJSON reads the form MarshalJSON writes. Its input is outside
// input: it refuses a bucket past the layout or not above the one before
// it, and counts whose total overflows the uint32 count, and it derives the
// total from the counts.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var pairs [][2]uint64
	if err := json.Unmarshal(data, &pairs); err != nil {
		return err
	}
	var out Hist
	for i, p := range pairs {
		switch {
		case p[0] >= buckets || i > 0 && p[0] <= pairs[i-1][0]:
			return fmt.Errorf("stats: histogram bucket %d past the %d-bucket layout or out of order", p[0], buckets)
		case p[1] > math.MaxUint32-uint64(out.n):
			return errors.New("stats: histogram counts overflow uint32")
		}
		out.counts[p[0]], out.n = uint32(p[1]), out.n+uint32(p[1])
	}
	*h = out
	return nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of h, or 0 when h
// is empty: Percentile's interpolation between closest ranks, over the
// midpoints of the buckets those ranks fall in.
func (h *Hist) Percentile(p float64) float64 {
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	if h.n == 0 {
		return 0
	}
	// The midpoints of the buckets holding the two ranks Percentile
	// interpolates between (equal ranks weigh the second by 0).
	lo, hi, frac := ranks(int(h.n), p)
	rank, v := [2]int{lo, hi}, [2]float64{}
	for b, k, seen := 0, 0, 0; k < 2; b++ {
		seen += int(h.counts[b])
		for ; k < 2 && rank[k] < seen; k++ {
			v[k] = math.Float64frombits(uint64(b+firstBucket)<<(52-subBits) | 1<<(51-subBits))
		}
	}
	return float64(v[0]*(1-frac)) + float64(v[1]*frac)
}

// Window is a concurrency-safe sliding window over the most recent n
// observations. It backs *online* tail-latency tracking in the live serving
// path: many worker goroutines Add measured latencies while a controller
// and operator-facing stats reads concurrently estimate the current p95.
//
// Unlike the offline simulator's samples (every measured query of a
// single-threaded run), a Window bounds memory and deliberately forgets: the
// p95 it reports tracks the *current* operating point, which is what an
// online tail-driven controller must react to. It keeps each observation
// only as its bucket, beside the Hist of the ones in the window, so neither
// Snapshot nor Percentile copies or sorts a sample.
type Window struct {
	mu   sync.Mutex
	ring []uint16 // each windowed observation's bucket
	next int      // ring insertion cursor
	hist Hist
}

// NewWindow returns a Window holding the most recent n observations.
func NewWindow(n int) *Window {
	if n < 1 {
		panic(fmt.Sprintf("stats: window size %d < 1", n))
	}
	return &Window{ring: make([]uint16, n)}
}

// Add records one observation, evicting the oldest when the window is full.
func (w *Window) Add(x float64) {
	b := bucket(x)
	w.mu.Lock()
	if int(w.hist.n) == len(w.ring) {
		w.hist.counts[w.ring[w.next]]--
	} else {
		w.hist.n++
	}
	w.hist.counts[b]++
	w.ring[w.next] = b
	w.next = (w.next + 1) % len(w.ring)
	w.mu.Unlock()
}

// Snapshot returns the Hist of the windowed observations.
func (w *Window) Snapshot() Hist {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hist
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the windowed
// observations, or 0 when the window is empty.
func (w *Window) Percentile(p float64) float64 {
	h := w.Snapshot()
	return h.Percentile(p)
}

// Reset empties the window.
func (w *Window) Reset() {
	w.mu.Lock()
	w.hist, w.next = Hist{}, 0
	w.mu.Unlock()
}
