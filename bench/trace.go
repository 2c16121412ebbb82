package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every span timestamp; nanos reads the monotonic clock.
var epoch = time.Now()

func nanos() int64 { return int64(time.Since(epoch)) }

// span is one timed call (or one run's worth of a per-event call) into a
// layer's public API, recorded from outside the layer. Parent indexes
// the span list (-1 for a run's root); Run is cell hash + replication.
// A call repeated per event (step, peek, allocate, Next) is one span per
// run: StartNS/EndNS bracket the first and last call, Calls counts them
// and BusyNS sums their durations. Self time is a span's busy time minus
// its children's.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Calls   int64  `json:"calls,omitempty"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
}

// busy is the time the span's layer was executing.
func (s *span) busy() int64 {
	if s.Calls > 0 {
		return s.BusyNS
	}
	return s.EndNS - s.StartNS
}

// callTimer accumulates the per-event calls of one run into one span.
type callTimer struct {
	calls, busyNS   int64
	firstNS, lastNS int64
}

func (c *callTimer) add(t0, t1 int64) {
	if c.calls == 0 {
		c.firstNS = t0
	}
	c.calls++
	c.busyNS += t1 - t0
	c.lastNS = t1
}

// tracer keeps every span in memory until the benchmark ends. mark is
// where the current workload's spans begin: totals covers only those.
type tracer struct {
	spans []span
	mark  int
}

// open appends a span starting now and returns its index.
func (t *tracer) open(name, run string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent, StartNS: nanos()})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].EndNS = nanos() }

// once records a single-call span from its two clock readings.
func (t *tracer) once(name, run string, parent int, t0, t1 int64) {
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent, StartNS: t0, EndNS: t1})
}

// calls records a per-event call's accumulated span; a timer that never
// fired leaves no span.
func (t *tracer) calls(name, run string, parent int, c *callTimer) int {
	if c.calls == 0 {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent,
		StartNS: c.firstNS, EndNS: c.lastNS, Calls: c.calls, BusyNS: c.busyNS})
	return len(t.spans) - 1
}

// total is the summed busy time and call count of one span name.
type total struct {
	busyNS, calls int64
}

func (t total) seconds() float64 { return float64(t.busyNS) / 1e9 }

// perCall is the mean busy nanoseconds per call (0 when never called).
func (t total) perCall() float64 { return ratio(float64(t.busyNS), float64(t.calls)) }

// totals sums busy time and calls per span name over the current
// workload's spans.
func (t *tracer) totals() map[string]total {
	out := make(map[string]total)
	for i := t.mark; i < len(t.spans); i++ {
		s := &t.spans[i]
		n := s.Calls
		if n == 0 {
			n = 1
		}
		tt := out[s.Name]
		tt.busyNS += s.busy()
		tt.calls += n
		out[s.Name] = tt
	}
	return out
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timerPairNS measures the cost of one nanos()/nanos() bracket, the
// overhead every traced call carries.
func timerPairNS() float64 {
	const n = 200000
	var sink int64
	t0 := nanos()
	for i := 0; i < n; i++ {
		a := nanos()
		sink += nanos() - a
	}
	_ = sink
	return float64(nanos()-t0) / n
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
