// Package core is the DPS simulation engine (paper §3–4): it directly
// executes a DPS application — operation handlers, routing functions, flow
// control, dynamic thread allocation — while reconstructing the parallel
// execution on virtual time.
//
// # Execution model
//
// Every operation invocation runs on a coroutine (the analogue of a DPS
// execution thread; finished invocations hand theirs to the next one);
// the engine (the simulator thread) resumes exactly one of them at a time
// and regains control whenever an atomic step ends: at every Post, at a
// flow-control suspension, and at invocation end (paper Fig. 3/4).
//
// Config.Durations, a DurationSource, decides what each computation of a
// step costs and whether its kernel runs — the partial direct execution
// spectrum of §4: Direct measures the kernels by direct execution (scaled
// wall-clock time), TableSource charges a calibration table, and
// AnalyticSource the application's analytic model; Executing runs the
// kernels of any of them for a correctness check.
//
// Step completions are scheduled on the per-node CPU model and posted
// objects travel through the platform's network model, so the
// reconstructed timeline reflects CPU sharing, communication overhead and
// network contention.
package core

import (
	"time"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
)

// Platform supplies the virtual hardware: an event queue (virtual clock),
// a network connecting the nodes, and per-node processors. The paper's
// simulator model (internal/core.SimPlatform) and the high-fidelity
// virtual cluster (internal/testbed) both implement it.
type Platform interface {
	// Queue returns the event queue driving the platform.
	Queue() *eventq.Queue
	// Send moves size bytes from node src to node dst and runs done when
	// the last byte arrives.
	Send(src, dst int, size int64, done func())
	// Submit schedules work (duration at reference power) on node's
	// processor and runs done when it completes.
	Submit(node int, work eventq.Duration, done func())
	// Nodes returns the number of compute nodes.
	Nodes() int
}

// DurationSource decides what each computation costs and whether its
// kernel runs. StepWork returns the duration of one computation of the
// class key, given the application's analytic estimate; kernel executes
// the real computation and is nil when there is nothing to run. A source
// that does not call kernel models the computation without performing it.
type DurationSource interface {
	StepWork(key string, analytic eventq.Duration, kernel func()) eventq.Duration
}

// SourceFunc adapts a function to the DurationSource interface.
type SourceFunc func(key string, analytic eventq.Duration, kernel func()) eventq.Duration

// StepWork implements DurationSource.
func (f SourceFunc) StepWork(key string, analytic eventq.Duration, kernel func()) eventq.Duration {
	return f(key, analytic, kernel)
}

// AnalyticSource returns the application's analytic estimate unchanged:
// the pure parametric model of §4.
func AnalyticSource() DurationSource {
	return SourceFunc(func(_ string, analytic eventq.Duration, _ func()) eventq.Duration {
		return analytic
	})
}

// TableSource serves averaged prior measurements (the PDEXEC duration
// table): keys present in the table use the measured mean; others fall
// back to the analytic estimate.
type TableSource struct {
	Table map[string]eventq.Duration
}

// StepWork implements DurationSource.
func (t TableSource) StepWork(key string, analytic eventq.Duration, _ func()) eventq.Duration {
	if d, ok := t.Table[key]; ok {
		return d
	}
	return analytic
}

// Executing runs every kernel and charges src's duration, so a small
// correctness run computes real results on a modeled timeline. src is
// handed no kernel, so none runs twice.
func Executing(src DurationSource) DurationSource {
	return SourceFunc(func(key string, analytic eventq.Duration, kernel func()) eventq.Duration {
		if kernel != nil {
			kernel()
		}
		return src.StepWork(key, analytic, nil)
	})
}

// Direct is direct execution with memoization (paper §4: "measure the
// running times of the first n instances of an operation, and reuse the
// averaged measure"). The first n kernels of each key run, and their
// wall-clock time times scale (host speed / target speed) is charged;
// later computations of the key are charged the mean of those
// measurements. A key with no measurement yet, because its kernels are
// nil, is charged the analytic estimate. The source keeps per-key state,
// so each engine needs its own.
func Direct(n int, scale float64) DurationSource {
	return &direct{n: n, scale: scale, keys: make(map[string]durationSum)}
}

type direct struct {
	n     int
	scale float64
	keys  map[string]durationSum // measured durations per key
}

func (d *direct) StepWork(key string, analytic eventq.Duration, kernel func()) eventq.Duration {
	m := d.keys[key]
	switch {
	case m.n < d.n && kernel != nil:
		t0 := time.Now()
		kernel()
		w := eventq.Duration(float64(time.Since(t0).Nanoseconds()) * d.scale)
		d.keys[key] = m.add(w)
		return w
	case m.n > 0:
		return m.mean()
	}
	return analytic
}

// Config assembles an engine.
type Config struct {
	// Graph is the application flow graph (validated by New).
	Graph *dps.Graph
	// Platform is the virtual hardware.
	Platform Platform
	// Durations decides what each computation costs and whether its
	// kernel runs. Default AnalyticSource().
	Durations DurationSource
	// NoAlloc tells the application (via Ctx.NoAlloc) to skip payload
	// allocation; sizes then come from the counting serializer.
	NoAlloc bool
	// PerStepOverhead is added to every atomic step: the cost of
	// executing the DPS runtime code itself. Zero is allowed.
	PerStepOverhead eventq.Duration
	// LocalLatency is the delivery delay between threads on the same
	// node (queue handling, no network).
	LocalLatency eventq.Duration
	// ControlBytes is the wire size of closure and acknowledgement
	// control messages. Default 64.
	ControlBytes int64
	// RecordDurations collects the per-key mean of charged durations
	// during the run; DurationTable() then yields a PDEXEC calibration
	// table.
	RecordDurations bool
	// Trace receives each step, transfer and phase mark as it ends (nil
	// disables tracing).
	Trace TraceFn
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceStep     TraceKind = iota // an atomic step on its thread
	TraceTransfer                  // a data object crossing the network
	TracePhase                     // a phase mark (Start == End)
)

// TraceEvent is one finished span of the timeline, enough to redraw the
// paper's Fig. 2/4 timing diagrams. A step lies on the node and thread
// that ran it, Detail "<work> <invocation kind>". A transfer runs from
// its post to its arrival on the receiving thread's track, Detail
// "<size>B from node <source>". A phase mark names its phase in Detail.
type TraceEvent struct {
	Kind       TraceKind
	Start, End eventq.Time
	Node       int
	Op         string
	Thread     int
	Detail     string
}

// TraceFn consumes each span as it ends.
type TraceFn func(ev TraceEvent)

// PhaseMark labels an instant of the run (the application marks iteration
// boundaries with these; the metrics package slices efficiency per phase).
type PhaseMark struct {
	Time eventq.Time
	Name string
}

// AllocMark records a change of the allocated-node count.
type AllocMark struct {
	Time  eventq.Time
	Nodes int
}

// Result summarizes a completed run.
type Result struct {
	// Elapsed is the predicted running time of the application.
	Elapsed eventq.Time
	// Steps is the number of atomic steps executed.
	Steps uint64
	// Posts is the number of data objects posted.
	Posts uint64
	// Transfers is the number of inter-node data transfers.
	Transfers uint64
	// LocalDeliveries counts same-node object deliveries.
	LocalDeliveries uint64
	// ControlMsgs counts closure and acknowledgement messages.
	ControlMsgs uint64
	// Instances is the number of pair instances opened.
	Instances uint64
}
