package stats

import (
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
	if w.Len() != 4 {
		t.Fatalf("Len=%d, want 4", w.Len())
	}
	if got := w.Percentile(100); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	// Two more evict 1 and 2; the window holds {3,4,5,6}.
	w.Add(5)
	w.Add(6)
	if w.Len() != 4 {
		t.Fatalf("after slide: Len=%d, want 4", w.Len())
	}
	if got := w.Percentile(0); got != 3 {
		t.Errorf("min after slide = %v, want 3", got)
	}
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("after reset: Len=%d, want 0", w.Len())
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
	if w.Len() != 256 {
		t.Fatalf("Len = %d, want 256", w.Len())
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
