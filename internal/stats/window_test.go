package stats

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestWindowSlides(t *testing.T) {
	w := NewWindow(4)
	if got := w.Percentile(95); got != 0 {
		t.Errorf("empty window p95 = %v, want 0", got)
	}
	for i := 1; i <= 4; i++ {
		w.Add(float64(i))
	}
	if h := w.Snapshot(); h.Count() != 4 {
		t.Fatalf("Count=%d, want 4", h.Count())
	}
	// Two more evict 1 and 2; the window holds {3,4,5,6}.
	w.Add(5)
	w.Add(6)
	fresh := NewWindow(4)
	for _, x := range []float64{3, 4, 5, 6} {
		fresh.Add(x)
	}
	if w.Snapshot() != fresh.Snapshot() {
		t.Fatal("after slide: histogram differs from a fresh window fed {3,4,5,6}")
	}
	w.Reset()
	if w.Snapshot() != (Hist{}) {
		t.Errorf("after reset: histogram not empty")
	}
}

// TestWindowClampsOutOfRange: values below the buckets' range (zero and
// negatives) land in the first bucket, values above it and NaN in the last.
func TestWindowClampsOutOfRange(t *testing.T) {
	low, high := NewWindow(3), NewWindow(3)
	for _, x := range []float64{0, -1, 1e-9} {
		low.Add(x)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), 1e6} {
		high.Add(x)
	}
	if p0, p100 := low.Percentile(0), low.Percentile(100); p0 != p100 || p0 < 0x1p-20 || p0 > 0x1p-20*(1+0x1p-5) {
		t.Errorf("below range: p0 %v, p100 %v, want both in the first bucket above 2^-20", p0, p100)
	}
	if p0, p100 := high.Percentile(0), high.Percentile(100); p0 != p100 || p0 < 0x1p10*(1-0x1p-5) || p0 > 0x1p10 {
		t.Errorf("above range: p0 %v, p100 %v, want both in the last bucket below 2^10", p0, p100)
	}
}

func TestWindowConcurrentAdds(t *testing.T) {
	w := NewWindow(256)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Add(float64(g*per + i))
				if i%50 == 0 {
					w.Percentile(95) // concurrent reads must be safe too
				}
			}
		}(g)
	}
	wg.Wait()
	if h := w.Snapshot(); h.Count() != 256 {
		t.Fatalf("Count = %d, want 256", h.Count())
	}
}

func TestWindowPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

// FuzzWindowPercentile holds the histogram window to its documented bound:
// a window of fuzzer-chosen size n over a stream of in-range latencies
// counts min(adds, n), each percentile lies within one bucket of the two
// ranks Percentile interpolates between over the last n samples, and the
// stream split into k windows adds up to one window fed all of it, count
// for count.
func FuzzWindowPercentile(f *testing.F) {
	f.Add(uint16(3), uint8(2), []byte("0123456789abcdef0123456789abcdefXYZ"))
	f.Add(uint16(4095), uint8(7), make([]byte, 64))
	f.Fuzz(func(t *testing.T, size uint16, k uint8, data []byte) {
		n := int(size)%4096 + 1
		lo, hi := math.Float64bits(0x1p-20), math.Float64bits(0x1p10) // 2^minExp, 2^maxExp
		var xs []float64
		for ; len(data) >= 4; data = data[4:] {
			xs = append(xs, math.Float64frombits(lo+uint64(binary.LittleEndian.Uint32(data))*((hi-lo)>>32)))
		}
		w := NewWindow(n)
		for _, x := range xs {
			w.Add(x)
		}
		h := w.Snapshot()
		if h.Count() != min(len(xs), n) {
			t.Fatalf("count %d after %d adds to a window of %d", h.Count(), len(xs), n)
		}
		if len(xs) > 0 {
			last := slices.Clone(xs[len(xs)-h.Count():])
			slices.Sort(last)
			for _, p := range []float64{0, 50, 95, 99, 100} {
				rlo, rhi, _ := ranks(len(last), p)
				if got := h.Percentile(p); got < last[rlo]*(1-0x1p-5) || got > last[rhi]*(1+0x1p-5) {
					t.Fatalf("p%v = %v outside [%v, %v] widened by one bucket", p, got, last[rlo], last[rhi])
				}
			}
		}
		parts := int(k)%8 + 1
		whole := NewWindow(max(len(xs), 1))
		var sum Hist
		for j := 0; j < parts; j++ {
			part := xs[j*len(xs)/parts : (j+1)*len(xs)/parts]
			pw := NewWindow(max(len(part), 1))
			for _, x := range part {
				pw.Add(x)
				whole.Add(x)
			}
			sum.Add(pw.Snapshot())
		}
		if sum != whole.Snapshot() {
			t.Fatalf("%d windows' histograms do not add up to one window's", parts)
		}
		var back Hist
		if doc, err := json.Marshal(&h); err != nil || json.Unmarshal(doc, &back) != nil || back != h {
			t.Fatalf("histogram does not survive its JSON form %s (%v)", doc, err)
		}
	})
}

// TestHistJSONRefusesOutsideInput: the JSON decoder takes a body from
// another process, so a bucket past the layout, a bucket listed out of
// order, and counts whose total overflows are errors, and the count is the
// sum of the counts given.
func TestHistJSONRefusesOutsideInput(t *testing.T) {
	var h Hist
	if err := json.Unmarshal([]byte(`[[0,2],[959,3]]`), &h); err != nil || h.Count() != 5 {
		t.Fatalf("valid histogram: count %d, error %v", h.Count(), err)
	}
	for _, doc := range []string{`[[960,1]]`, `[[-1,1]]`, `[[5,1],[5,1]]`, `[[6,1],[5,1]]`,
		`[[0,4294967295],[1,1]]`, `[[0,4294967296]]`, `{"n":3}`} {
		if err := json.Unmarshal([]byte(doc), &h); err == nil {
			t.Errorf("%s decoded to a histogram of %d", doc, h.Count())
		}
	}
}
