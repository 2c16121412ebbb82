package trace

import (
	"fmt"
	"sort"
	"strings"

	"dpsim/internal/core"
	"dpsim/internal/eventq"
)

// Span is one completed activity on a node's timeline.
type Span struct {
	Node   int
	Op     string
	Thread int
	Kind   core.TraceKind // TraceStepStart or TraceTransferStart
	Start  eventq.Time
	End    eventq.Time
	Detail string
}

// Recorder collects trace events from a core engine. Pass Recorder.Hook
// as Config.Trace.
type Recorder struct {
	spans []Span
	// open steps/transfers keyed by (node, op, thread); the engine is
	// single-threaded and balances start/end events per key FIFO.
	open   map[string][]pending
	phases []core.PhaseMark
}

type pending struct {
	start  eventq.Time
	detail string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{open: make(map[string][]pending)}
}

func key(kind core.TraceKind, node int, op string, thread int) string {
	base := "s"
	if kind == core.TraceTransferStart || kind == core.TraceTransferEnd {
		base = "t"
	}
	return fmt.Sprintf("%s/%d/%s/%d", base, node, op, thread)
}

// Hook consumes engine trace events.
func (r *Recorder) Hook(ev core.TraceEvent) {
	switch ev.Kind {
	case core.TraceStepStart, core.TraceTransferStart:
		k := key(ev.Kind, ev.Node, ev.Op, ev.Thread)
		r.open[k] = append(r.open[k], pending{start: ev.Time, detail: ev.Detail})
	case core.TraceStepEnd, core.TraceTransferEnd:
		startKind := core.TraceStepStart
		if ev.Kind == core.TraceTransferEnd {
			startKind = core.TraceTransferStart
		}
		k := key(startKind, ev.Node, ev.Op, ev.Thread)
		q := r.open[k]
		if len(q) == 0 {
			// Transfer ends are recorded at the destination while starts
			// are recorded at the source; accept unmatched ends as
			// zero-length markers rather than dropping them.
			r.spans = append(r.spans, Span{
				Node: ev.Node, Op: ev.Op, Thread: ev.Thread, Kind: startKind,
				Start: ev.Time, End: ev.Time, Detail: ev.Detail,
			})
			return
		}
		p := q[0]
		r.open[k] = q[1:]
		r.spans = append(r.spans, Span{
			Node: ev.Node, Op: ev.Op, Thread: ev.Thread, Kind: startKind,
			Start: p.start, End: ev.Time, Detail: p.detail,
		})
	case core.TracePhase:
		r.phases = append(r.phases, core.PhaseMark{Time: ev.Time, Name: ev.Detail})
	}
}

// Spans returns the completed spans sorted by start time.
func (r *Recorder) Spans() []Span {
	out := append([]Span(nil), r.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Phases returns recorded phase marks.
func (r *Recorder) Phases() []core.PhaseMark { return r.phases }

// Gantt renders one line per (node, op) lane over the given width in
// characters. Compute steps draw '█', transfers '░'; '·' is idle.
func (r *Recorder) Gantt(width int) string {
	spans := r.Spans()
	if len(spans) == 0 {
		return "(empty trace)\n"
	}
	var end eventq.Time
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		end = 1
	}
	type lane struct {
		label string
		cells []rune
	}
	laneIdx := make(map[string]int)
	var lanes []*lane
	cellOf := func(t eventq.Time) int {
		c := int(float64(t) / float64(end) * float64(width))
		if c >= width {
			c = width - 1
		}
		return c
	}
	for _, s := range spans {
		label := fmt.Sprintf("n%d %-12s", s.Node, truncate(s.Op, 12))
		idx, ok := laneIdx[label]
		if !ok {
			idx = len(lanes)
			laneIdx[label] = idx
			cells := make([]rune, width)
			for i := range cells {
				cells[i] = '·'
			}
			lanes = append(lanes, &lane{label: label, cells: cells})
		}
		glyph := '█'
		if s.Kind == core.TraceTransferStart {
			glyph = '░'
		}
		from, to := cellOf(s.Start), cellOf(s.End)
		for c := from; c <= to && c < width; c++ {
			if lanes[idx].cells[c] == '·' || glyph == '█' {
				lanes[idx].cells[c] = glyph
			}
		}
	}
	sort.Slice(lanes, func(i, j int) bool { return lanes[i].label < lanes[j].label })
	var b strings.Builder
	fmt.Fprintf(&b, "timeline 0 .. %v  (█ compute, ░ transfer)\n", end)
	for _, l := range lanes {
		fmt.Fprintf(&b, "%s |%s|\n", l.label, string(l.cells))
	}
	return b.String()
}

// Summary reports per-op aggregate busy time, for quick profiling.
func (r *Recorder) Summary() string {
	busy := make(map[string]eventq.Duration)
	count := make(map[string]int)
	var names []string
	for _, s := range r.spans {
		if s.Kind != core.TraceStepStart {
			continue
		}
		if _, ok := busy[s.Op]; !ok {
			names = append(names, s.Op)
		}
		busy[s.Op] += eventq.Duration(s.End - s.Start)
		count[s.Op]++
	}
	sort.Slice(names, func(i, j int) bool { return busy[names[i]] > busy[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %8s\n", "operation", "busy", "steps")
	for _, n := range names {
		fmt.Fprintf(&b, "%-20s %10v %8d\n", truncate(n, 20), busy[n], count[n])
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
