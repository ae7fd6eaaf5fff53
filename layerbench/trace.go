package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one operation share op; parent is the
// id of the span that caused this one (0 for a root).
type span struct {
	id, parent int
	name       string
	op         int64
	lane       int
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: add records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when untraced).
func (t *tracer) add(name string, parent int, op int64, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, op: op, lane: lane, start: start, end: end})
	return id
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) (sum time.Duration, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end.Sub(s.start)
			n++
		}
	}
	return sum, n
}

// meanMS is the mean duration of the spans called name, in ms.
func (t *tracer) meanMS(name string) float64 {
	sum, n := t.total(name)
	return ratio(float64(sum)/1e6, float64(n))
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
