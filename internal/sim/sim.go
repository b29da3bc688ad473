// Package sim is a deterministic discrete-event simulator: a virtual clock
// and an event queue ordered by time with FIFO tie-breaking. It is the
// general form of the event order the serving simulator keeps without a
// queue: the serving tests' literal per-request oracle runs on it, so that
// Run's firing order is checked against an independent implementation.
package sim

import (
	"fmt"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq int64 // insertion order breaks ties deterministically
	fn  func()
}

// before reports whether e fires ahead of o: ordered by (at, seq).
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Sim is a single-threaded discrete-event simulation. The zero value is not
// usable; create one with New.
//
// The event queue is a hand-rolled binary min-heap over a value slice rather
// than container/heap, whose interface{} boxing costs one allocation per
// push.
type Sim struct {
	now    time.Duration
	queue  []event // binary min-heap ordered by event.before
	seq    int64
	firing int64 // seq of the event currently executing (0 = none)
}

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Reset returns the simulation to its initial state — clock at zero, no
// pending events — retaining the event queue's backing storage, so one Sim
// serves many runs without reallocating the heap.
func (s *Sim) Reset() {
	s.now = 0
	s.queue = s.queue[:0]
	s.seq = 0
	s.firing = 0
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// At schedules fn at absolute virtual time t and returns the event's unique
// sequence number. Two events scheduled for the identical timestamp carry
// distinct sequence numbers, so a caller that re-arms a single logical event
// can tell a live heap entry from a superseded one by comparing the returned
// value against FiringSeq inside the callback — a timestamp alone cannot.
// Scheduling in the past is a logic error and panics: a causality violation
// in a latency simulation silently corrupts every downstream percentile.
func (s *Sim) At(t time.Duration, fn func()) int64 {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.queue = append(s.queue, event{at: t, seq: s.seq, fn: fn})
	s.siftUp(len(s.queue) - 1)
	return s.seq
}

// After schedules fn d after the current virtual time and returns the
// event's sequence number (see At).
func (s *Sim) After(d time.Duration, fn func()) int64 {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// FiringSeq returns the sequence number of the event currently executing,
// or 0 outside any callback. It is the identity check for re-armed events:
// a callback observing FiringSeq different from the latest At return value
// knows it is a stale heap entry.
func (s *Sim) FiringSeq() int64 { return s.firing }

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for len(s.queue) > 0 {
		s.step()
	}
}

// step pops and executes the earliest event.
func (s *Sim) step() {
	e := s.queue[0]
	last := len(s.queue) - 1
	s.queue[0] = s.queue[last]
	s.queue[last] = event{} // release the callback reference
	s.queue = s.queue[:last]
	if last > 0 {
		s.siftDown(0)
	}
	s.now = e.at
	s.firing = e.seq
	e.fn()
	s.firing = 0
}

// siftUp restores the heap property from leaf i toward the root.
func (s *Sim) siftUp(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

// siftDown restores the heap property from node i toward the leaves.
func (s *Sim) siftDown(i int) {
	q := s.queue
	n := len(q)
	e := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q[right].before(q[child]) {
			child = right
		}
		if !q[child].before(e) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = e
}
