package trace

import (
	"fmt"
	"sort"
	"strings"

	"dpsim/internal/core"
	"dpsim/internal/eventq"
)

// Recorder collects the spans of a core engine's run. Pass Recorder.Hook
// as Config.Trace.
type Recorder struct {
	spans  []core.TraceEvent
	phases []core.PhaseMark
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Hook consumes the engine's finished spans.
func (r *Recorder) Hook(ev core.TraceEvent) {
	if ev.Kind == core.TracePhase {
		r.phases = append(r.phases, core.PhaseMark{Time: ev.Start, Name: ev.Detail})
		return
	}
	r.spans = append(r.spans, ev)
}

// Spans returns the recorded steps and transfers in the order they ended.
func (r *Recorder) Spans() []core.TraceEvent { return r.spans }

// Phases returns recorded phase marks.
func (r *Recorder) Phases() []core.PhaseMark { return r.phases }

// Gantt renders one line per (node, op) lane over the given width in
// characters. Compute steps draw '█', transfers '░'; '·' is idle.
func (r *Recorder) Gantt(width int) string {
	if len(r.spans) == 0 {
		return "(empty trace)\n"
	}
	var end eventq.Time
	for _, s := range r.spans {
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
	for _, s := range r.spans {
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
		if s.Kind == core.TraceTransfer {
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
		if s.Kind != core.TraceStep {
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
