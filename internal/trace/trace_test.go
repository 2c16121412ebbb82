package trace

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
	"dpsim/internal/serial"
)

func TestSpansInEndOrder(t *testing.T) {
	r := NewRecorder()
	late := core.TraceEvent{Kind: core.TraceStep, Start: 0, End: 30, Node: 0, Op: "a", Thread: 0}
	early := core.TraceEvent{Kind: core.TraceTransfer, Start: 10, End: 20, Node: 1, Op: "b", Thread: 1}
	r.Hook(early)
	r.Hook(late)
	if got := r.Spans(); len(got) != 2 || got[0] != early || got[1] != late {
		t.Fatalf("spans = %+v, want the hooked spans in order", got)
	}
}

func TestPhasesRecorded(t *testing.T) {
	r := NewRecorder()
	r.Hook(core.TraceEvent{Kind: core.TracePhase, Start: 4, End: 4, Detail: "iter:0"})
	if len(r.Phases()) != 1 || r.Phases()[0].Name != "iter:0" || r.Phases()[0].Time != 4 {
		t.Fatalf("phases = %+v", r.Phases())
	}
	if len(r.Spans()) != 0 {
		t.Fatalf("a phase mark became a span: %+v", r.Spans())
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

// coll names the collection of each op of runTraced's graph: spans
// carry the op, and a DPS thread is a collection's thread.
var coll = map[string]string{"split": "m", "work": "w", "merge": "m"}

// runTraced records a split on node 0 fanning four 100 kB objects out to
// a two-thread leaf on nodes 1 and 2, whose 1 kB results a merge on
// node 0 collects: every post crosses the network. Each leaf invocation
// is two steps (compute and post, then return); each absorb is one.
func runTraced(t *testing.T) *Recorder {
	t.Helper()
	master := dps.NewCollection("m", 1, 1)
	workers := dps.NewCollection("w", 2, 1)
	workers.PlaceAll([]int{1, 2})
	g := dps.NewGraph("g")
	split := g.Split("split", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Phase("iter:0")
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
	plat := core.NewSimPlatform(3, netmodel.FastEthernet(), cpumodel.Defaults())
	eng, err := core.New(core.Config{Graph: g, Platform: plat, Trace: rec.Hook})
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(split, 0, &blob{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTransfersSpanSendToConsumption: a transfer starts when the step
// that posted it ends, on that step's node, and ends strictly later, no
// later than the start of the step consuming it on the receiving thread
// (the k-th arrival on a thread feeds its k-th invocation). Steps on one
// thread never overlap.
func TestTransfersSpanSendToConsumption(t *testing.T) {
	spans := runTraced(t).Spans()
	type lane struct {
		node, thread int
		op           string
	}
	type instant struct {
		node int
		at   eventq.Time
	}
	posted := map[instant]int{} // step ends by node: where a post leaves
	steps := map[lane][]core.TraceEvent{}
	arrivals := map[lane][]core.TraceEvent{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		l := lane{s.Node, s.Thread, s.Op}
		if s.Kind == core.TraceStep {
			posted[instant{s.Node, s.End}]++
			steps[l] = append(steps[l], s)
		} else {
			arrivals[l] = append(arrivals[l], s)
		}
	}
	if len(arrivals) == 0 {
		t.Fatal("no transfers recorded")
	}
	detail := regexp.MustCompile(`^\d+B from node (\d+)$`)
	for l, in := range arrivals {
		slices.SortFunc(in, func(a, b core.TraceEvent) int { return cmp.Compare(a.End, b.End) })
		// The step that consumes each arrival starts an invocation.
		var firsts []core.TraceEvent
		for i, s := range steps[l] {
			if (l.op == "merge" && strings.HasSuffix(s.Detail, " absorb")) || (l.op == "work" && i%2 == 0) {
				firsts = append(firsts, s)
			}
		}
		if len(firsts) != len(in) {
			t.Fatalf("%+v: %d arrivals, %d consuming steps", l, len(in), len(firsts))
		}
		for k, x := range in {
			m := detail.FindStringSubmatch(x.Detail)
			if m == nil {
				t.Fatalf("transfer detail %q", x.Detail)
			}
			var src int
			fmt.Sscan(m[1], &src)
			if posted[instant{src, x.Start}] == 0 {
				t.Errorf("transfer %+v starts when no step on node %d ends", x, src)
			}
			posted[instant{src, x.Start}]--
			if x.End <= x.Start {
				t.Errorf("transfer %+v has no length", x)
			}
			if c := firsts[k]; x.End > c.Start {
				t.Errorf("transfer %+v ends after its consumer %+v starts", x, c)
			}
		}
	}
	threads := map[string][]core.TraceEvent{}
	for l, ss := range steps {
		key := fmt.Sprintf("%s[%d]", coll[l.op], l.thread)
		threads[key] = append(threads[key], ss...)
	}
	for key, ss := range threads {
		slices.SortFunc(ss, func(a, b core.TraceEvent) int { return cmp.Compare(a.Start, b.Start) })
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End {
				t.Errorf("thread %s: step %+v overlaps %+v", key, ss[i], ss[i-1])
			}
		}
	}
}

func TestEndToEndGantt(t *testing.T) {
	rec := runTraced(t)
	gantt := rec.Gantt(60)
	if !strings.Contains(gantt, "█") {
		t.Fatalf("gantt has no compute bars:\n%s", gantt)
	}
	// The legend holds one ░; a transfer drawn with its length holds two
	// or more.
	if !strings.Contains(gantt, "░░") {
		t.Fatalf("gantt has no transfer bar of 2+ cells:\n%s", gantt)
	}
	if !strings.Contains(gantt, "work") {
		t.Fatalf("gantt misses op lanes:\n%s", gantt)
	}
	sum := rec.Summary()
	if !strings.Contains(sum, "work") || !strings.Contains(sum, "steps") {
		t.Fatalf("summary malformed:\n%s", sum)
	}
}
