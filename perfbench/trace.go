package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; lane
// groups spans onto one row of the trace viewer (a goroutine or a
// replay), where children nest inside their parent's interval.
type span struct {
	id, parent int // parent 0: a root span
	name       string
	op, lane   int
	start, end time.Duration // since the tracer started
}

// Trace lanes: the live campaigns and their Test calls; the replay and
// the in-process check compiles; the load generator's connections
// (laneLoadgen + connection index).
const (
	laneLive    = 1
	laneReplay  = 2
	laneLoadgen = 10
)

// tracer keeps spans in memory; writeChrome writes them out once.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span starting now and returns its id (ids start at
// 1); end closes it. A nil tracer records nothing.
func (t *tracer) begin(name string, parent, op, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name,
		op: op, lane: lane, start: now, end: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// add records a completed span with explicit times and returns its id.
func (t *tracer) add(name string, parent, op, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name,
		op: op, lane: lane, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans)
}

// duration is a span's length.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.end - s.start
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTimes aggregates spans by name: count, total and self time. A
// span's self time is its duration minus the part of its interval that
// its child spans cover.
type layerTime struct {
	count       int
	total, self time.Duration
}

func layerTimes(spans []span) map[string]*layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.count++
		lt.total += d
		lt.self += d - covered(s.start, s.end, children[s.id])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			sum += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in
// chrome://tracing or ui.perfetto.dev without a network connection.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := t.snapshot()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.name, Ph: "X", PID: 1, TID: s.lane,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.id, "parent": s.parent, "op": s.op}}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
