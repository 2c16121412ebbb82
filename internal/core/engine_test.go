package core

import (
	"strings"
	"testing"

	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
	"dpsim/internal/serial"
)

// --- test data objects ---

type intObj struct {
	v    int
	blob int // extra payload bytes, for transfer-time tests
}

func (o *intObj) Wire(s serial.Stream) {
	o.v = int(s.I64(int64(o.v)))
	s.Skip(o.blob)
}

// --- helpers ---

func testPlatform(nodes int) *SimPlatform {
	np := netmodel.Params{Latency: 100 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true}
	cp := cpumodel.Defaults()
	return NewSimPlatform(nodes, np, cp)
}

// buildFanOut constructs split -> leaf -> merge over `width` worker
// threads on `nodes` nodes. The split fans the input into `fan` objects;
// each leaf doubles the value; the merge sums results into the thread
// store under "sum".
func buildFanOut(nodes, width, fan int, leafWork, splitWork eventq.Duration) (*dps.Graph, *dps.Collection, *dps.Collection) {
	master := dps.NewCollection("master", 1, nodes)
	workers := dps.NewCollection("workers", width, nodes)
	g := dps.NewGraph("fanout")

	split := g.Split("distribute", master, func(ctx dps.Ctx, in dps.DataObject) {
		n := in.(*intObj).v
		for i := 0; i < fan; i++ {
			ctx.Compute("split-gen", splitWork, nil)
			ctx.Post(&intObj{v: n + i})
		}
	})
	leaf := g.Leaf("double", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("double", leafWork, nil)
		ctx.Post(&intObj{v: in.(*intObj).v * 2})
	})
	merge := g.Merge("collect", master, func(dps.DataObject) dps.MergeState {
		return &sumState{}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	return g, master, workers
}

type sumState struct{ sum int }

func (s *sumState) Absorb(ctx dps.Ctx, in dps.DataObject) { s.sum += in.(*intObj).v }
func (s *sumState) Finish(ctx dps.Ctx) {
	st := ctx.Store()
	st["sum"] = s.sum
}

func TestSplitLeafMerge(t *testing.T) {
	g, master, _ := buildFanOut(4, 4, 8, eventq.Millisecond, 100*eventq.Microsecond)
	plat := testPlatform(4)
	eng, err := New(Config{Graph: g, Platform: plat})
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(g.Ops()[0], 0, &intObj{v: 10})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// sum of 2*(10..17) = 2*(8*10 + 28) = 216
	got := eng.Store(master, 0)["sum"]
	if got != 216 {
		t.Fatalf("merge sum = %v, want 216", got)
	}
	if res.Instances != 1 {
		t.Fatalf("instances = %d, want 1", res.Instances)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	// 1 injection + 8 split posts + 8 leaf posts.
	if res.Posts != 16 {
		t.Fatalf("posts = %d, want 16", res.Posts)
	}
	// At least one step per split post + leafs + absorbs + finish.
	if res.Steps < 25 {
		t.Fatalf("steps = %d, want >= 25", res.Steps)
	}
}

func TestParallelismSpeedsUp(t *testing.T) {
	elapsed := func(nodes, width int) eventq.Time {
		g, _, _ := buildFanOut(nodes, width, 16, 10*eventq.Millisecond, 0)
		eng, err := New(Config{Graph: g, Platform: testPlatform(nodes)})
		if err != nil {
			t.Fatal(err)
		}
		eng.Inject(g.Ops()[0], 0, &intObj{v: 1})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	serial := elapsed(1, 1)
	parallel := elapsed(4, 4)
	if parallel >= serial {
		t.Fatalf("4-node run (%v) not faster than 1-node run (%v)", parallel, serial)
	}
	speedup := float64(serial) / float64(parallel)
	if speedup < 2 {
		t.Fatalf("speedup %.2f too low for 16 independent 10ms tasks on 4 nodes", speedup)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (eventq.Time, uint64) {
		g, _, _ := buildFanOut(4, 8, 32, 3*eventq.Millisecond, 50*eventq.Microsecond)
		eng, err := New(Config{Graph: g, Platform: testPlatform(4)})
		if err != nil {
			t.Fatal(err)
		}
		eng.Inject(g.Ops()[0], 0, &intObj{v: 5})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed, res.Steps
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%v, %d) vs (%v, %d)", e1, s1, e2, s2)
	}
}

func TestTransfersVsLocalDeliveries(t *testing.T) {
	// Single node: every delivery is local.
	g, _, _ := buildFanOut(1, 2, 4, eventq.Millisecond, 0)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(g.Ops()[0], 0, &intObj{v: 0})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 0 {
		t.Fatalf("single-node run produced %d network transfers", res.Transfers)
	}
	if res.LocalDeliveries == 0 {
		t.Fatal("no local deliveries recorded")
	}

	// Two nodes: worker thread 1 lives on node 1 → transfers happen.
	g2, _, _ := buildFanOut(2, 2, 4, eventq.Millisecond, 0)
	eng2, _ := New(Config{Graph: g2, Platform: testPlatform(2)})
	eng2.Inject(g2.Ops()[0], 0, &intObj{v: 0})
	res2, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Transfers == 0 {
		t.Fatal("two-node run produced no transfers")
	}
}

func TestBiggerObjectsTakeLonger(t *testing.T) {
	run := func(blob int) eventq.Time {
		master := dps.NewCollection("m", 1, 2)
		workers := dps.NewCollection("w", 1, 2)
		workers.Place(0, 1) // force remote
		g := dps.NewGraph("g")
		split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
			ctx.Post(&intObj{v: 1, blob: blob})
		})
		leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
			ctx.Post(&intObj{v: 1})
		})
		merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &sumState{} })
		g.Connect(split, leaf, dps.RoundRobin)
		g.Connect(leaf, merge, nil)
		g.PairOps(split, merge, nil)
		eng, _ := New(Config{Graph: g, Platform: testPlatform(2)})
		eng.Inject(split, 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	small := run(1000)
	big := run(10_000_000)
	if big <= small {
		t.Fatalf("10MB object (%v) not slower than 1KB object (%v)", big, small)
	}
	// 10MB at 12.5MB/s ≈ 0.8s of pure transfer.
	if big < eventq.Time(700*eventq.Millisecond) {
		t.Fatalf("big transfer too fast: %v", big)
	}
}

// --- streams and pipelining ---

type relayState struct {
	barrier bool
	buf     []dps.DataObject
	work    eventq.Duration
}

func (s *relayState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	if s.barrier {
		s.buf = append(s.buf, in)
		return
	}
	ctx.Compute("relay", s.work, nil)
	ctx.Post(in)
}

func (s *relayState) Finish(ctx dps.Ctx) {
	for _, o := range s.buf {
		ctx.Compute("relay", s.work, nil)
		ctx.Post(o)
	}
}

// buildPipeline: split -> stage1 leaf -> stream(relay) -> stage2 leaf -> merge.
// With barrier=true the relay behaves like a merge-split pair (the paper's
// basic graph); with false it streams (pipelined graph).
func buildPipeline(barrier bool, fan int, stageWork eventq.Duration) (*dps.Graph, *dps.Op) {
	nodes := 4
	master := dps.NewCollection("m", 1, nodes)
	workers := dps.NewCollection("w", 4, nodes)
	g := dps.NewGraph("pipe")
	split := g.Split("src", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < fan; i++ {
			ctx.Post(&intObj{v: i})
		}
	})
	stage1 := g.Leaf("stage1", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("w1", stageWork, nil)
		ctx.Post(in)
	})
	relay := g.Stream("relay", master, func(dps.DataObject) dps.MergeState {
		return &relayState{barrier: barrier, work: 10 * eventq.Microsecond}
	})
	stage2 := g.Leaf("stage2", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("w2", stageWork, nil)
		ctx.Post(in)
	})
	sink := g.Merge("sink", master, func(dps.DataObject) dps.MergeState { return &sumState{} })

	g.Connect(split, stage1, dps.RoundRobin)
	g.Connect(stage1, relay, nil)
	e := g.Connect(relay, stage2, dps.RoundRobin)
	g.Connect(stage2, sink, nil)
	g.PairOps(split, relay, nil)
	g.PairOps(relay, sink, nil, e)
	return g, split
}

func TestStreamPipelinesFasterThanBarrier(t *testing.T) {
	run := func(barrier bool) eventq.Time {
		g, split := buildPipeline(barrier, 16, 5*eventq.Millisecond)
		eng, err := New(Config{Graph: g, Platform: testPlatform(4)})
		if err != nil {
			t.Fatal(err)
		}
		eng.Inject(split, 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	pipelined := run(false)
	barrier := run(true)
	if pipelined >= barrier {
		t.Fatalf("pipelined (%v) not faster than barrier (%v)", pipelined, barrier)
	}
}

func TestStreamResultsComplete(t *testing.T) {
	g, split := buildPipeline(false, 10, eventq.Millisecond)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(4)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	master := g.Ops()[0].Collection()
	// sum of 0..9 = 45
	if got := eng.Store(master, 0)["sum"]; got != 45 {
		t.Fatalf("stream pipeline sum = %v, want 45", got)
	}
}

// --- nested pairs ---

func TestNestedSplitMerge(t *testing.T) {
	nodes := 2
	master := dps.NewCollection("m", 1, nodes)
	workers := dps.NewCollection("w", 2, nodes)
	g := dps.NewGraph("nested")
	outer := g.Split("outer", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 3; i++ {
			ctx.Post(&intObj{v: 10 * (i + 1)})
		}
	})
	inner := g.Split("inner", workers, func(ctx dps.Ctx, in dps.DataObject) {
		v := in.(*intObj).v
		for i := 0; i < 4; i++ {
			ctx.Post(&intObj{v: v + i})
		}
	})
	leaf := g.Leaf("work", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(in)
	})
	innerMerge := g.Merge("innerMerge", workers, func(dps.DataObject) dps.MergeState {
		return &innerSum{}
	})
	outerMerge := g.Merge("outerMerge", master, func(dps.DataObject) dps.MergeState {
		return &sumState{}
	})
	g.Connect(outer, inner, dps.RoundRobin)
	g.Connect(inner, leaf, dps.RoundRobin)
	g.Connect(leaf, innerMerge, nil)
	g.Connect(innerMerge, outerMerge, nil)
	g.PairOps(outer, outerMerge, nil)
	g.PairOps(inner, innerMerge, nil)
	eng, err := New(Config{Graph: g, Platform: testPlatform(nodes)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(outer, 0, &intObj{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// inner sums: (10..13)=46, (20..23)=86, (30..33)=126 → total 258.
	if got := eng.Store(master, 0)["sum"]; got != 258 {
		t.Fatalf("nested sum = %v, want 258", got)
	}
	if res.Instances != 4 { // 1 outer + 3 inner
		t.Fatalf("instances = %d, want 4", res.Instances)
	}
}

type innerSum struct{ sum int }

func (s *innerSum) Absorb(ctx dps.Ctx, in dps.DataObject) { s.sum += in.(*intObj).v }
func (s *innerSum) Finish(ctx dps.Ctx)                    { ctx.Post(&intObj{v: s.sum}) }

// --- flow control ---

// buildWindowed creates split -> leaf -> merge where the split fans out
// `fan` objects and the pair has the given window. maxQueued observes the
// peak number of posted-but-unabsorbed objects.
func TestFlowControlLimitsInFlight(t *testing.T) {
	var posted, absorbed, peak int
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("fc")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 12; i++ {
			ctx.Post(&intObj{v: i})
			posted++
			if posted-absorbed > peak {
				peak = posted - absorbed
			}
		}
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("work", eventq.Millisecond, nil)
		ctx.Post(in)
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState {
		return &countingState{onAbsorb: func() { absorbed++ }}
	})
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	pair := g.PairOps(split, merge, nil)
	pair.SetWindow(3)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if posted != 12 || absorbed != 12 {
		t.Fatalf("posted %d absorbed %d, want 12/12", posted, absorbed)
	}
	// In-flight (posted - absorbed) can exceed the window only by the one
	// post being built; the window keeps it near 3, definitely below 6.
	if peak > 5 {
		t.Fatalf("peak in-flight %d with window 3", peak)
	}
	if res.ControlMsgs == 0 {
		t.Fatal("windowed pair produced no control messages")
	}
}

type countingState struct {
	onAbsorb func()
}

func (s *countingState) Absorb(ctx dps.Ctx, in dps.DataObject) {
	if s.onAbsorb != nil {
		s.onAbsorb()
	}
}
func (s *countingState) Finish(ctx dps.Ctx) {}

func TestWindowedRunsSlowerButCompletes(t *testing.T) {
	run := func(window int) eventq.Time {
		g, _, _ := buildFanOut(2, 2, 20, 2*eventq.Millisecond, 0)
		if window > 0 {
			g.Pairs()[0].SetWindow(window)
		}
		eng, _ := New(Config{Graph: g, Platform: testPlatform(2)})
		eng.Inject(g.Ops()[0], 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		return res.Elapsed
	}
	unbounded := run(0)
	tight := run(1)
	if tight < unbounded {
		t.Fatalf("window=1 (%v) faster than unbounded (%v)", tight, unbounded)
	}
}

// --- error paths ---

func TestLeafMustPostExactlyOne(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("bad")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&intObj{})
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) {
		// posts nothing: violates the 1:1 leaf discipline
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	_, err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Fatalf("zero-post leaf accepted: %v", err)
	}
}

func TestUserPanicSurfaces(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("boom")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		panic("kaboom")
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(split, 0, &intObj{})
	_, err := eng.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("user panic not surfaced: %v", err)
	}
}

func TestRoutingOutOfRangeFails(t *testing.T) {
	if err := runBadRoute(); err == nil || !strings.Contains(err.Error(), "outside active width") {
		t.Fatalf("bad routing accepted: %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	g, _, _ := buildFanOut(1, 1, 1, 0, 0)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("invalid")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) {})
	g.Connect(split, leaf, dps.RoundRobin) // unpaired split edge
	_, err := New(Config{Graph: g, Platform: testPlatform(1)})
	if err == nil {
		t.Fatal("invalid graph accepted by New")
	}
}

// --- duration sources ---

// spinKernel is busy work a wall-clock measurement must capture.
func spinKernel(n int) func() {
	return func() {
		x := 0.0
		for i := 0; i < n; i++ {
			x += float64(i)
		}
		_ = x
	}
}

// TestKernelRunsPerSource: the duration source alone decides whether a
// kernel runs. A split posts five objects; each leaf computes two keys
// with kernels and one without.
func TestKernelRunsPerSource(t *testing.T) {
	const instances = 5
	for _, c := range []struct {
		name string
		src  DurationSource
		runs int // per key with a kernel
	}{
		{"analytic", AnalyticSource(), 0},
		{"table", TableSource{Table: map[string]eventq.Duration{"a": eventq.Second}}, 0},
		{"executing", Executing(AnalyticSource()), instances},
		{"direct-3", Direct(3, 1), 3},
		{"direct-n-above-instances", Direct(2*instances, 1), instances},
	} {
		t.Run(c.name, func(t *testing.T) {
			runs := map[string]int{}
			master := dps.NewCollection("m", 1, 1)
			g := dps.NewGraph("kernels")
			split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
				for i := 0; i < instances; i++ {
					ctx.Post(&intObj{v: i})
				}
			})
			leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) {
				for _, key := range []string{"a", "b"} {
					spin := spinKernel(10_000)
					ctx.Compute(key, eventq.Millisecond, func() { runs[key]++; spin() })
				}
				ctx.Compute("modeled", 7*eventq.Millisecond, nil)
				ctx.Post(in)
			})
			merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
			g.Connect(split, leaf, dps.RoundRobin)
			g.Connect(leaf, merge, nil)
			g.PairOps(split, merge, nil)
			eng, _ := New(Config{Graph: g, Platform: testPlatform(1), Durations: c.src, RecordDurations: true})
			eng.Inject(split, 0, &intObj{})
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if runs["a"] != c.runs || runs["b"] != c.runs {
				t.Fatalf("kernel runs = %v, want %d per key", runs, c.runs)
			}
			table := eng.DurationTable()
			if table["modeled"] != 7*eventq.Millisecond {
				t.Fatalf("nil kernel charged %v, want the 7ms analytic estimate", table["modeled"])
			}
			if c.runs > 0 && table["a"] <= 0 {
				t.Fatalf("no duration charged for a: %v", table)
			}
		})
	}
}

func TestModelModeRunsComputationsWhenAsked(t *testing.T) {
	run := func(src DurationSource) int {
		executed := 0
		g := microGraph(func(ctx dps.Ctx, in dps.DataObject) {
			ctx.Compute("k", eventq.Millisecond, func() { executed++ })
			ctx.Post(in)
		})
		eng, _ := New(Config{Graph: g, Platform: testPlatform(1), Durations: src})
		eng.Inject(g.Ops()[0], 0, &intObj{})
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return executed
	}
	if n := run(Executing(AnalyticSource())); n != 1 {
		t.Fatalf("kernel executed %d times under Executing, want 1", n)
	}
	if n := run(nil); n != 0 {
		t.Fatalf("kernel executed %d times under the analytic default, want 0", n)
	}
}

func TestDirectMemoMeasuresFirstN(t *testing.T) {
	executions := 0
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("memo")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 10; i++ {
			ctx.Post(&intObj{v: i})
		}
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) {
		spin := spinKernel(100_000)
		ctx.Compute("kernel", eventq.Millisecond, func() { executions++; spin() })
		ctx.Post(in)
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1), Durations: Direct(3, 1), RecordDurations: true})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if executions != 3 {
		t.Fatalf("Direct(3) executed kernel %d times, want 3", executions)
	}
	if eng.DurationTable()["kernel"] <= 0 {
		t.Fatal("Direct(3) recorded no duration table")
	}
}

// microGraph: single split posting one object to a one-thread leaf + merge.
func microGraph(leafFn dps.LeafFunc) *dps.Graph {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("micro")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&intObj{v: in.(*intObj).v})
	})
	leaf := g.Leaf("l", master, leafFn)
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	return g
}

func TestDirectModeMeasuresWallTime(t *testing.T) {
	g := microGraph(func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("spin", 0, spinKernel(2_000_000))
		ctx.Post(in)
	})
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1), Durations: Direct(1, 1)})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < eventq.Time(10*eventq.Microsecond) {
		t.Fatalf("direct execution measured only %v for 2M additions", res.Elapsed)
	}
}

func TestDirectModeCPUScale(t *testing.T) {
	run := func(scale float64) eventq.Time {
		g := microGraph(func(ctx dps.Ctx, in dps.DataObject) {
			ctx.Compute("spin", 0, spinKernel(3_000_000))
			ctx.Post(in)
		})
		eng, _ := New(Config{Graph: g, Platform: testPlatform(1), Durations: Direct(1, scale)})
		eng.Inject(g.Ops()[0], 0, &intObj{})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	fast := run(1)
	slow := run(100)
	// A 100x scale factor must dominate wall-clock noise on 3M additions.
	if float64(slow) < 5*float64(fast) {
		t.Fatalf("scale 100 (%v) not clearly slower than 1 (%v)", slow, fast)
	}
}

func TestDurationTableFeedsTableSource(t *testing.T) {
	// Record durations in one run; replay them via TableSource in another.
	mk := func(durations DurationSource, record bool) *Engine {
		g, _, _ := buildFanOut(2, 2, 6, 2*eventq.Millisecond, 0)
		eng, _ := New(Config{
			Graph: g, Platform: testPlatform(2),
			Durations: durations, RecordDurations: record,
		})
		eng.Inject(g.Ops()[0], 0, &intObj{})
		return eng
	}
	rec := mk(SourceFunc(func(_ string, d eventq.Duration, _ func()) eventq.Duration { return 2 * d }), true)
	if _, err := rec.Run(); err != nil {
		t.Fatal(err)
	}
	table := rec.DurationTable()
	if table["double"] != 4*eventq.Millisecond {
		t.Fatalf("recorded table = %v, want double=4ms", table)
	}
	replay := mk(TableSource{Table: table}, false)
	res, err := replay.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("replay produced no time")
	}
}

func TestNoAllocExposed(t *testing.T) {
	seen := false
	g := microGraph(func(ctx dps.Ctx, in dps.DataObject) {
		seen = ctx.NoAlloc()
		ctx.Post(in)
	})
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1), NoAlloc: true})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("NoAlloc not visible through Ctx")
	}
}

// --- malleability ---

func TestResizeRedirectsRouting(t *testing.T) {
	master := dps.NewCollection("m", 1, 4)
	workers := dps.NewCollection("w", 4, 4)
	usedThreads := make(map[int]bool)
	g := dps.NewGraph("resize")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 8; i++ {
			if i == 4 {
				workers.Resize(2) // paper: thread removal at a safe point
			}
			ctx.Post(&intObj{v: i})
		}
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
		usedThreads[ctx.Thread()] = true
		ctx.Post(in)
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(4)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Threads 2,3 may be used before the resize; after it, routing must
	// stay within the first two.
	if !usedThreads[0] || !usedThreads[1] {
		t.Fatalf("surviving threads unused: %v", usedThreads)
	}
	allocs := eng.Allocations()
	last := allocs[len(allocs)-1]
	if last.Nodes != 2 {
		t.Fatalf("final allocation %d nodes, want 2 (master on node 0 + workers 0,1)", last.Nodes)
	}
}

func TestPlacementMigration(t *testing.T) {
	master := dps.NewCollection("m", 1, 2)
	workers := dps.NewCollection("w", 2, 2)
	var nodesSeen []int
	g := dps.NewGraph("migrate")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&intObj{v: 0})
		workers.Place(1, 0) // move thread 1 from node 1 to node 0
		ctx.Post(&intObj{v: 1})
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
		nodesSeen = append(nodesSeen, ctx.Node())
		ctx.Post(in)
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &countingState{} })
	g.Connect(split, leaf, func(r dps.Routing) int { return 1 }) // always thread 1
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(2)})
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodesSeen) != 2 {
		t.Fatalf("leaf ran %d times", len(nodesSeen))
	}
	if nodesSeen[1] != 0 {
		t.Fatalf("after migration leaf ran on node %d, want 0", nodesSeen[1])
	}
}

// --- phases, traces, stores ---

func TestPhaseMarks(t *testing.T) {
	g, _, _ := buildFanOut(1, 1, 2, eventq.Millisecond, 0)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.MarkPhase("start")
	eng.Inject(g.Ops()[0], 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.MarkPhase("end")
	ph := eng.Phases()
	if len(ph) != 2 || ph[0].Name != "start" || ph[1].Name != "end" {
		t.Fatalf("phases = %v", ph)
	}
	if ph[1].Time < ph[0].Time {
		t.Fatal("phase times not monotone")
	}
}

// TestTraceEventsEmitted: the hook receives each step and each transfer
// once, as a span that does not end before it starts.
func TestTraceEventsEmitted(t *testing.T) {
	kinds := make(map[TraceKind]uint64)
	g, _, _ := buildFanOut(2, 2, 4, eventq.Millisecond, 0)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(2), Trace: func(ev TraceEvent) {
		kinds[ev.Kind]++
		if ev.End < ev.Start {
			t.Errorf("span ends before it starts: %+v", ev)
		}
	}})
	eng.Inject(g.Ops()[0], 0, &intObj{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers == 0 || kinds[TraceStep] != res.Steps || kinds[TraceTransfer] != res.Transfers {
		t.Fatalf("span counts %v, want %d steps and %d transfers", kinds, res.Steps, res.Transfers)
	}
}

func TestStoreSeeding(t *testing.T) {
	master := dps.NewCollection("m", 1, 1)
	g := dps.NewGraph("store")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Post(&intObj{v: ctx.Store()["seed"].(int)})
	})
	leaf := g.Leaf("l", master, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) })
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return &sumState{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	eng, _ := New(Config{Graph: g, Platform: testPlatform(1)})
	eng.Store(master, 0)["seed"] = 123
	eng.Inject(split, 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Store(master, 0)["sum"]; got != 123 {
		t.Fatalf("sum = %v, want 123", got)
	}
}

// runFanOut builds and runs a 64-way fan-out over 8 threads on 4 nodes,
// tracing off: 258 atomic steps, 96 of the 128 posts crossing the network.
func runFanOut(tb testing.TB) {
	g, _, _ := buildFanOut(4, 8, 64, eventq.Millisecond, 10*eventq.Microsecond)
	eng, err := New(Config{Graph: g, Platform: testPlatform(4)})
	if err != nil {
		tb.Fatal(err)
	}
	eng.Inject(g.Ops()[0], 0, &intObj{})
	if _, err := eng.Run(); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkEngineFanOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runFanOut(b)
	}
}

// TestEngineFanOutAllocCeiling pins what a run costs with tracing off. It
// was 8,600 allocations while every step and transfer formatted a
// TraceEvent.Detail nobody received and every reflow re-created an event
// and a closure per flowing transfer and running job, 2,761 while every
// invocation started a goroutine with two channels, and 2,501 on pooled
// coroutines while every step still allocated its completion closure, a
// CPU job with its event and callback, and every invocation its dps.Ctx;
// it is 1,384 now that a step allocates nothing of its own (1,419 under
// -race, which CI also runs).
func TestEngineFanOutAllocCeiling(t *testing.T) {
	const ceiling = 1450
	if allocs := testing.AllocsPerRun(5, func() { runFanOut(t) }); allocs > ceiling {
		t.Fatalf("fan-out run allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
