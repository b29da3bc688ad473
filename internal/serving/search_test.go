package serving

import (
	"testing"
	"time"
)

// TestSearchRejectsBatchAboveItsTable: a Search's service-time table is sized
// once, for the largest batch its climb declared; a larger one must not index
// past a row.
func TestSearchRejectsBatchAboveItsTable(t *testing.T) {
	s := NewSearch(&fakeEngine{cores: 2, perItem: time.Microsecond}, benchOpts(time.Millisecond), 64)
	defer s.Release()
	if qps, _ := s.MaxQPS(Config{BatchSize: 64}); qps == 0 {
		t.Error("batch 64 on a Search built for 64: no capacity")
	}
	defer func() {
		if recover() == nil {
			t.Error("batch 65 on a Search built for 64 did not panic")
		}
	}()
	s.MaxQPS(Config{BatchSize: 65})
}
