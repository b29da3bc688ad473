package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one query share
// its ID; Parent names the span that caused this one ("" for the root).
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass calls the same code.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

// on reports whether spans are being recorded; the wrappers at each seam
// check it first, so a phase run with recording off pays one branch.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) enable(on bool) { t.enabled.Store(on) }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the tracer's clock: nanoseconds since its epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(id int64, name, parent string, start, end int64) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// durations returns, per span name, each span's length in nanoseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// selfTimes returns, per span name, each span's duration minus the time its
// direct children (same ID, Parent == its name) cover: the layer's own
// time. Children of one span never overlap here, so their lengths add.
func selfTimes(spans []span) map[string][]float64 {
	type key struct {
		id   int64
		name string
	}
	children := make(map[key]int64)
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-children[key{s.ID, s.Name}]))
	}
	return out
}
