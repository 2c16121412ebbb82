package trace

import (
	"strings"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
	"dpsim/internal/serial"
)

func TestPairedSpans(t *testing.T) {
	r := NewRecorder()
	r.Hook(core.TraceEvent{Kind: core.TraceStepStart, Time: 10, Node: 0, Op: "a", Thread: 0})
	r.Hook(core.TraceEvent{Kind: core.TraceStepEnd, Time: 30, Node: 0, Op: "a", Thread: 0})
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Start != 10 || spans[0].End != 30 {
		t.Fatalf("span = %+v", spans[0])
	}
}

func TestNestedSameKeySpansFIFO(t *testing.T) {
	r := NewRecorder()
	r.Hook(core.TraceEvent{Kind: core.TraceStepStart, Time: 0, Node: 0, Op: "a", Thread: 0})
	r.Hook(core.TraceEvent{Kind: core.TraceStepStart, Time: 5, Node: 0, Op: "a", Thread: 0})
	r.Hook(core.TraceEvent{Kind: core.TraceStepEnd, Time: 7, Node: 0, Op: "a", Thread: 0})
	r.Hook(core.TraceEvent{Kind: core.TraceStepEnd, Time: 9, Node: 0, Op: "a", Thread: 0})
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Start != 0 || spans[0].End != 7 {
		t.Fatalf("FIFO pairing broken: %+v", spans)
	}
}

func TestUnmatchedEndBecomesMarker(t *testing.T) {
	r := NewRecorder()
	r.Hook(core.TraceEvent{Kind: core.TraceTransferEnd, Time: 12, Node: 1, Op: "x", Thread: 0})
	spans := r.Spans()
	if len(spans) != 1 || spans[0].Start != spans[0].End {
		t.Fatalf("unmatched end handling: %+v", spans)
	}
}

func TestPhasesRecorded(t *testing.T) {
	r := NewRecorder()
	r.Hook(core.TraceEvent{Kind: core.TracePhase, Time: 4, Detail: "iter:0"})
	if len(r.Phases()) != 1 || r.Phases()[0].Name != "iter:0" {
		t.Fatalf("phases = %+v", r.Phases())
	}
}

func TestGanttEmpty(t *testing.T) {
	r := NewRecorder()
	if !strings.Contains(r.Gantt(40), "empty") {
		t.Fatal("empty gantt not flagged")
	}
}

// --- end to end with a real engine ---

type blob struct{ n int }

func (b *blob) Wire(s serial.Stream) { s.Skip(b.n) }

type null struct{}

func (null) Absorb(dps.Ctx, dps.DataObject) {}
func (null) Finish(dps.Ctx)                 {}

func TestEndToEndGantt(t *testing.T) {
	master := dps.NewCollection("m", 1, 2)
	workers := dps.NewCollection("w", 2, 2)
	g := dps.NewGraph("g")
	split := g.Split("split", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 4; i++ {
			ctx.Compute("gen", 200*eventq.Microsecond, nil)
			ctx.Post(&blob{n: 100_000})
		}
	})
	leaf := g.Leaf("work", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("crunch", 3*eventq.Millisecond, nil)
		ctx.Post(&blob{n: 1000})
	})
	merge := g.Merge("merge", master, func(dps.DataObject) dps.MergeState { return null{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)

	rec := NewRecorder()
	plat := core.NewSimPlatform(2, netmodel.FastEthernet(), cpumodel.Defaults())
	eng, err := core.New(core.Config{Graph: g, Platform: plat, Trace: rec.Hook})
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(split, 0, &blob{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	spans := r2steps(rec)
	if spans == 0 {
		t.Fatal("no compute spans recorded")
	}
	gantt := rec.Gantt(60)
	if !strings.Contains(gantt, "█") {
		t.Fatalf("gantt has no compute bars:\n%s", gantt)
	}
	if !strings.Contains(gantt, "░") {
		t.Fatalf("gantt has no transfer bars:\n%s", gantt)
	}
	if !strings.Contains(gantt, "work") {
		t.Fatalf("gantt misses op lanes:\n%s", gantt)
	}
	sum := rec.Summary()
	if !strings.Contains(sum, "work") || !strings.Contains(sum, "steps") {
		t.Fatalf("summary malformed:\n%s", sum)
	}
}

func r2steps(r *Recorder) int {
	n := 0
	for _, s := range r.Spans() {
		if s.Kind == core.TraceStepStart {
			n++
		}
	}
	return n
}
