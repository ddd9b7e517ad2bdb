package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer records a span around each call the harness makes into a
// layer of the simulator: name, start, end, id and parent id. Spans
// stay in memory until writeTrace. A nil tracer, or one whose on flag
// is false, records nothing, which is how every untraced run uses it.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

type span struct {
	Name       string
	ID, Parent int // ids start at 1; Parent 0 is the root
	Start, End time.Duration
}

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now()} }

// begin opens a span as a child of the innermost open one and returns a
// handle for end; -1 when nothing is recorded.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: time.Since(t.epoch)})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if h < 0 {
		return
	}
	t.spans[h].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	h := t.begin(name)
	defer t.end(h)
	return fn()
}

// selfTimes sums, per span name, each span's duration minus the time
// its child spans cover. The harness is sequential, so a span's
// children never overlap and the time they cover is their summed
// duration.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent-1] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - children[i]
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events in microseconds), which ui.perfetto.dev and
// chrome://tracing load.
func (t *tracer) writeTrace(path string) error {
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.Name, Cat: "whperf", Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}
