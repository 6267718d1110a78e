package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the enclosing span (-1 for an op's root); Op numbers the benchmark
// operation (one Run, or one commit of a stream) the span belongs to.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration // since the tracer's epoch
	ReadOff    bool          // duration reported by the API, placed by the benchmark
}

// tracer keeps spans in memory until the run ends. Spans nest through
// a stack, so begin/end must come from one goroutine at a time (the
// benchmark's main goroutine, on which the engine also runs its
// reduce and store calls); the mutex only keeps a stray concurrent call
// from corrupting the slice. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp starts a new operation and its root span.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	return t.begin(name)
}

// opOf returns the op a span belongs to.
func (t *tracer) opOf(id int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Op
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", t.spans[id].Name))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
}

// readOff records a duration the API measured itself (for example
// PipelineResult.BlockingTime) as a child of span parent starting at
// start. Its placement is the benchmark's choice, not a measurement.
func (t *tracer) readOff(name string, parent int, start time.Time, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	s := start.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: t.spans[parent].Op, Parent: parent, Start: s, End: s + d, ReadOff: true})
}

// balanced reports whether every opened span was closed.
func (t *tracer) balanced() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stack) == 0
}

// opTimes summarises the spans of op by name: total is the summed
// duration of the spans carrying each name, self the same minus the
// durations of their direct children, and top the summed duration of
// the direct children of the op's root. Children of one span are
// sequential, so subtracting their durations removes exactly the
// interval they cover.
func (t *tracer) opTimes(op int) (total, self, top map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total, self, top = map[string]time.Duration{}, map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Op != op {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent >= 0 {
			parent := t.spans[s.Parent]
			self[parent.Name] -= d
			if parent.Parent < 0 {
				top[s.Name] += d
			}
		}
	}
	return total, self, top
}

// write stores the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Every event carries its span id,
// parent, op id, start and end in microseconds; env lands in otherData.
func (t *tracer) write(path string, env map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op,
				"start_us": us(s.Start), "end_us": us(s.End), "read_off": s.ReadOff},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": env})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
