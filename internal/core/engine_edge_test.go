package core

import (
	"strings"
	"testing"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
)

// Edge-case coverage for the engine beyond the main test file: empty
// instances, zero-post splits, closure/data races, duration sources,
// control-message costs, and failure injection.

func TestSplitPostingNothing(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("empty")
	finished := false
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		// Posts nothing: the pair never opens an instance.
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState {
		return &countingState{onAbsorb: func() { finished = true }}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if finished {
		t.Fatal("merge absorbed objects from an empty split")
	}
	if res.Instances != 0 {
		t.Fatalf("instances = %d, want 0 (lazy instance creation)", res.Instances)
	}
}

func TestClosureBeatsSlowData(t *testing.T) {
	// The split finishes immediately but the leaf computes for a long
	// time: the closure control message reaches the merge long before the
	// data. Completion must still require both.
	master := dps.NewCollection("m", 1, 2)
	workers := dps.NewCollection("w", 1, 2)
	workers.Place(0, 1)
	g := dps.NewGraph("race")
	var absorbed int
	var finishedAt eventq.Time
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&intObj{v: 1})
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("slow", 5*eventq.Second, nil)
		ctx.Post(in)
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState {
		return &probeState{onAbsorb: func() { absorbed++ }, onFinish: func(at eventq.Time) { finishedAt = at }}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(2)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if absorbed != 1 {
		t.Fatalf("absorbed = %d", absorbed)
	}
	if finishedAt < eventq.Time(5*eventq.Second) {
		t.Fatalf("merge finished at %v, before the slow leaf could deliver", finishedAt)
	}
}

type probeState struct {
	onAbsorb func()
	onFinish func(at eventq.Time)
}

func (s *probeState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	if s.onAbsorb != nil {
		s.onAbsorb()
	}
}
func (s *probeState) Finish(ctx dps.Ctx) {
	if s.onFinish != nil {
		s.onFinish(ctx.Now())
	}
}

func TestStreamPostsFromFinish(t *testing.T) {
	// A stream that buffers everything and posts only in Finish must
	// still open and close its output instances correctly.
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("late")
	sum := 0
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 1; i <= 3; i++ {
			ctx.Post(&intObj{v: i})
		}
	})
	stream := g.Stream("st", master, func(dps.DataObject) dps.MergeState {
		return &bufferAllState{}
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState {
		return &countingState{onAbsorb: func() { sum++ }}
	})
	g.Connect(split, stream, nil)
	e := g.Connect(stream, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, stream, nil)
	g.PairOps(stream, merge, nil, e)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Fatalf("merge absorbed %d, want 3", sum)
	}
}

type bufferAllState struct {
	buf []dps.DataObject
}

func (s *bufferAllState) Absorb(ctx dps.Ctx, in dps.DataObject) { s.buf = append(s.buf, in) }
func (s *bufferAllState) Finish(ctx dps.Ctx) {
	for _, o := range s.buf {
		ctx.Post(o)
	}
}

func TestDirectMemoNilKernelFallsBack(t *testing.T) {
	g := microGraph(func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("modeled", 7*eventq.Millisecond, nil) // no kernel
		ctx.Post(in)
	})
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1), Durations: Direct(3, 1)})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < eventq.Time(7*eventq.Millisecond) {
		t.Fatalf("Direct with nil kernel charged %v, want >= 7ms analytic", res.Elapsed)
	}
}

func TestTableSourceFallback(t *testing.T) {
	src := TableSource{Table: map[string]eventq.Duration{"known": eventq.Second}}
	if src.StepWork("known", eventq.Millisecond, nil) != eventq.Second {
		t.Fatal("table hit ignored")
	}
	if src.StepWork("unknown", eventq.Millisecond, nil) != eventq.Millisecond {
		t.Fatal("fallback to analytic failed")
	}
}

func TestAnalyticSourceIdentity(t *testing.T) {
	if AnalyticSource().StepWork("x", 5*eventq.Second, nil) != 5*eventq.Second {
		t.Fatal("analytic source modified the estimate")
	}
}

func TestControlBytesCost(t *testing.T) {
	// Larger control messages (closures, acks) make a windowed run with a
	// REMOTE merge slower: the sink lives on node 1 while the split posts
	// from node 0, so every ack and closure crosses the network.
	run := func(ctrlBytes int64) eventq.Time {
		master := dps.NewCollection("m", 1, 2)
		sinkColl := dps.NewCollection("sink", 1, 2)
		sinkColl.Place(0, 1)
		workers := dps.NewCollection("w", 2, 2)
		g := dps.NewGraph("ctrl")
		split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
			for i := 0; i < 20; i++ {
				ctx.Post(&intObj{v: i})
			}
		})
		leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
			ctx.Compute("w", eventq.Millisecond, nil)
			ctx.Post(in)
		})
		merge := g.Merge("mg", sinkColl, func(dps.DataObject) dps.MergeState { return &countingState{} })
		g.Connect(split, leaf, dps.RoundRobin)
		g.Connect(leaf, merge, nil)
		g.PairOps(split, merge, nil).SetWindow(2)
		eng, _ := New(Config{Graph: g, Platform: testPlatform(2), ControlBytes: ctrlBytes})
		eng.Inject(split, 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	small := run(64)
	big := run(1 << 20) // pathological 1MB acks
	if big <= small {
		t.Fatalf("1MB control messages (%v) not slower than 64B (%v)", big, small)
	}
}

func TestLocalLatencyCost(t *testing.T) {
	run := func(lat eventq.Duration) eventq.Time {
		g, _, _ := buildFanOut(1, 1, 10, 0, 0)
		eng, _ := New(Config{Graph: g, Platform: testPlatform(1), LocalLatency: lat})
		eng.Inject(g.Ops()[0], 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	fast := run(0)
	slow := run(10 * eventq.Millisecond)
	if slow <= fast {
		t.Fatalf("local latency had no effect: %v vs %v", slow, fast)
	}
}

func TestPerStepOverheadAccumulates(t *testing.T) {
	run := func(ovh eventq.Duration) eventq.Time {
		g, _, _ := buildFanOut(1, 1, 10, 0, 0)
		eng, _ := New(Config{Graph: g, Platform: testPlatform(1), PerStepOverhead: ovh})
		eng.Inject(g.Ops()[0], 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if run(eventq.Millisecond) <= run(0) {
		t.Fatal("per-step overhead had no effect")
	}
}

// TestRecordDurationsSamples: the table holds each key's mean charged
// duration.
func TestRecordDurationsSamples(t *testing.T) {
	g := microGraph(func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("k", 2*eventq.Millisecond, nil)
		ctx.Compute("k", 4*eventq.Millisecond, nil)
		ctx.Post(in)
	})
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1), RecordDurations: true})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	table := eng.DurationTable()
	if len(table) != 1 || table["k"] != 3*eventq.Millisecond {
		t.Fatalf("table = %v", table)
	}
}

func TestInjectIntoMergeFails(t *testing.T) {
	g, _, _ := buildFanOut(1, 1, 1, 0, 0)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	var mergeOp *dps.Op
	for _, op := range g.Ops() {
		if op.Kind() == dps.KindMerge {
			mergeOp = op
		}
	}
	eng.Inject(mergeOp, 0, &intObj{})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "inject") {
		t.Fatalf("injection into merge accepted: %v", err)
	}
}

func TestNilPostFails(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("nil")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(nil)
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil post accepted: %v", err)
	}
}

func TestPostOnBadEdgeFails(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("edge")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.PostTo(5, &intObj{})
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "edge") {
		t.Fatalf("bad edge index accepted: %v", err)
	}
}

func TestManyConcurrentInstances(t *testing.T) {
	// Many overlapping split instances: bookkeeping must stay correct.
	master := dps.NewCollection("m", 2, 2)
	workers := dps.NewCollection("w", 4, 2)
	g := dps.NewGraph("many")
	total := 0
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 5; i++ {
			ctx.Post(&intObj{v: in.(*intObj).v})
		}
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("w", eventq.Millisecond, nil)
		ctx.Post(in)
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState {
		return &countingState{onAbsorb: func() { total++ }}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, func(first dps.DataObject, width int) int {
		return first.(*intObj).v % width
	})
	eng, _ := New(Config{Graph: g, Platform: testPlatform(2)})
	for v := 0; v < 20; v++ {
		eng.Inject(split, v%2, &intObj{v: v})
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("absorbed %d, want 100", total)
	}
	if res.Instances != 20 {
		t.Fatalf("instances = %d, want 20", res.Instances)
	}
}
