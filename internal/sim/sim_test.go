package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []time.Duration
	times := []time.Duration{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	s.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Errorf("fired %d events, want 5", len(got))
	}
}

func TestTiesFireInInsertionOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order violated: %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New()
	var at time.Duration
	s.At(42*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != 42*time.Millisecond {
		t.Errorf("Now() during event = %v, want 42ms", at)
	}
	if s.Now() != 42*time.Millisecond {
		t.Errorf("final Now() = %v", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var second time.Duration
	s.At(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() { second = s.Now() })
	})
	s.Run()
	if second != 15*time.Millisecond {
		t.Errorf("chained event at %v, want 15ms", second)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	s := New()
	dropped := false
	s.At(10*time.Millisecond, func() {})
	s.Run()
	s.At(30*time.Millisecond, func() { dropped = true })
	s.Reset()
	if s.Now() != 0 {
		t.Errorf("reset left the clock at %v", s.Now())
	}
	// The simulator is fully reusable after Reset: scheduling before the
	// old clock works, and no event from before the reset fires.
	var at time.Duration
	s.At(4*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != 4*time.Millisecond {
		t.Errorf("post-reset event at %v, want 4ms", at)
	}
	if dropped {
		t.Error("an event scheduled before Reset fired after it")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10*time.Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	s.At(1*time.Millisecond, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	s.After(-time.Millisecond, func() {})
}

// Property: regardless of insertion order, events fire sorted by time and
// the clock never moves backwards.
func TestOrderingProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%50) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var fireTimes []time.Duration
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(1000)) * time.Microsecond
			s.At(at, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != n {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCascadingEvents(t *testing.T) {
	// An M/D/1-style chain: each event schedules the next; verifies the
	// simulator handles events created during execution.
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(time.Millisecond, tick)
		}
	}
	s.At(0, tick)
	s.Run()
	if count != 100 {
		t.Errorf("cascade fired %d, want 100", count)
	}
	if s.Now() != 99*time.Millisecond {
		t.Errorf("final time %v, want 99ms", s.Now())
	}
}

func TestEventSeqIdentity(t *testing.T) {
	// At returns a unique sequence number per event — including for two
	// events scheduled at the identical timestamp — and FiringSeq exposes
	// the executing event's number, so a re-armed logical event can tell a
	// live heap entry from a superseded one where a fire-time comparison
	// cannot.
	s := New()
	var fired []int64
	record := func() { fired = append(fired, s.FiringSeq()) }
	a := s.At(time.Millisecond, record)
	b := s.At(time.Millisecond, record) // same instant, distinct identity
	c := s.After(2*time.Millisecond, record)
	if a == b || b == c {
		t.Fatalf("sequence numbers not unique: %d, %d, %d", a, b, c)
	}
	if got := s.FiringSeq(); got != 0 {
		t.Errorf("FiringSeq outside callbacks = %d, want 0", got)
	}
	s.Run()
	if len(fired) != 3 || fired[0] != a || fired[1] != b || fired[2] != c {
		t.Errorf("FiringSeq inside callbacks = %v, want [%d %d %d]", fired, a, b, c)
	}
	if got := s.FiringSeq(); got != 0 {
		t.Errorf("FiringSeq after Run = %d, want 0", got)
	}
}

func TestResetClearsFiringSeq(t *testing.T) {
	s := New()
	s.At(0, func() {})
	s.Run()
	s.Reset()
	if got := s.At(0, func() {}); got != 1 {
		t.Errorf("first seq after Reset = %d, want 1", got)
	}
}
