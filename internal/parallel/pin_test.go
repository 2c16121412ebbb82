package parallel

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
	"dpsim/internal/stencil"
	"dpsim/internal/transport"
)

// Thread removals for TestRealRuntimeMatchesEngine: the multiplication
// collection shrinks from 8 threads on 4 nodes while other threads route
// to it (paper Figs. 11–12).
var (
	oneRemoval  = []lu.Removal{{AfterIter: 2, MultThreads: 2}}
	twoRemovals = []lu.Removal{{AfterIter: 2, MultThreads: 4}, {AfterIter: 5, MultThreads: 2}}
)

// TestRealRuntimeMatchesEngine runs one application on both DPS executors
// — this runtime, and the simulated engine (core with an Executing
// duration source on a SimPlatform) — and pins them against each other: the paper's §3 claim
// that "the real and simulated applications may be run identically".
//
// Both executors post the same objects, open the same instances and send
// the same closures and acks, and every invocation of the simulated engine
// is one atomic step more than its posts. Their LU factors agree bit for
// bit.
//
// Transfers are pinned only where no node crossing depends on arrival
// order. LU's collect and next operations are streams: they absorb, and
// the basic graph's barrier re-emits, in arrival order, which on this
// runtime follows goroutine and socket timing. The Seq that round-robin
// routing sees then varies from run to run, and so can the number of
// objects that cross nodes (basic on 2 nodes: 32 or 34, simulated 32).
// With the multiplications on one node, or with PM, where each
// multiplication's four sub-products land two on each node, every
// crossing is fixed by a post's Seq or the object's contents.
func TestRealRuntimeMatchesEngine(t *testing.T) {
	for _, v := range []struct {
		name      string
		cfg       lu.Config
		transfers bool
	}{
		{"basic", lu.Config{N: 24, R: 6, Nodes: 2}, false},
		{"basic, multiplications on one node", lu.Config{N: 24, R: 6, Nodes: 2, MultNodes: 1}, true},
		{"P", lu.Config{N: 24, R: 6, Nodes: 2, Pipelined: true}, false},
		{"P+FC", lu.Config{N: 24, R: 6, Nodes: 3, Pipelined: true, Window: 2}, false},
		{"PM", lu.Config{N: 24, R: 6, Nodes: 2, ParallelMult: true}, true},
		{"P+PM+FC", lu.Config{N: 24, R: 6, Nodes: 2, Pipelined: true, ParallelMult: true, Window: 2}, true},
		{"basic, one removal", lu.Config{N: 48, R: 6, Nodes: 2, MultNodes: 4, Removals: oneRemoval}, false},
		{"basic, two removals", lu.Config{N: 48, R: 6, Nodes: 2, MultNodes: 4, Removals: twoRemovals}, false},
		{"P, one removal", lu.Config{N: 48, R: 6, Nodes: 2, MultNodes: 4, Pipelined: true, Removals: oneRemoval}, false},
		{"P, two removals", lu.Config{N: 48, R: 6, Nodes: 2, MultNodes: 4, Pipelined: true, Removals: twoRemovals}, false},
		{"P+FC, one removal", lu.Config{N: 48, R: 6, Nodes: 2, MultNodes: 4, Pipelined: true, Window: 2, Removals: oneRemoval}, false},
		{"P+FC, two removals", lu.Config{N: 48, R: 6, Nodes: 2, MultNodes: 4, Pipelined: true, Window: 2, Removals: twoRemovals}, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			nodes := max(v.cfg.Nodes, v.cfg.MultNodes)
			live, err := lu.Build(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			codec := transport.NewCodec()
			lu.RegisterCodec(codec)
			rt := runReal(t, Config{Graph: live.Graph, Nodes: nodes, Codec: codec}, func(rt *Runtime) {
				live.Prepare(rt.Store, 11)
				rt.Inject(live.Init, 0, &lu.Seed{})
			})
			sim, err := lu.Build(v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, res := runSim(t, sim.Graph, nodes, func(eng *core.Engine) {
				sim.Prepare(eng.Store, 11)
				sim.Start(eng)
			})
			pinCounts(t, rt.Stats(), res, v.transfers)
			sameBits(t, "LU factors", live.Assemble(rt.Store).A, sim.Assemble(eng.Store).A)
		})
	}
	// The stencil pushes each band's boundary rows right after its
	// update, and a neighbour reads them only after the iteration's
	// reduce, so neither executor can let a band overwrite a row before
	// it is read: the grid equals the serial reference bit for bit. The
	// reduce sums the band residuals in band order, so the residuals are
	// the simulated engine's bit for bit.
	t.Run("stencil", func(t *testing.T) {
		cfg := stencil.Config{N: 24, Bands: 4, Nodes: 2, Iterations: 5}
		live, err := stencil.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		codec := transport.NewCodec()
		stencil.RegisterCodec(codec)
		var init [][]float64
		rt := runReal(t, Config{Graph: live.Graph, Nodes: cfg.Nodes, Codec: codec}, func(rt *Runtime) {
			init = live.Prepare(rt.Store, 3)
			rt.Inject(live.Entry, 0, &stencil.IterSeed{})
		})
		sim, err := stencil.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, res := runSim(t, sim.Graph, cfg.Nodes, func(eng *core.Engine) {
			sim.Prepare(eng.Store, 3)
			sim.Start(eng)
		})
		pinCounts(t, rt.Stats(), res, false)
		want := stencil.SerialReference(init, cfg.Iterations)
		for i, row := range live.Assemble(rt.Store) {
			sameBits(t, fmt.Sprintf("grid row %d", i), row, want[i])
		}
		sameBits(t, "residuals", live.Residuals(), sim.Residuals())
	})
}

// runReal runs an application on this runtime; start seeds and injects.
func runReal(t *testing.T, cfg Config, start func(*Runtime)) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	start(rt)
	if err := rt.Wait(); err != nil {
		t.Fatal(err)
	}
	return rt
}

// runSim runs an application on the simulated engine with its kernels
// executing; start seeds and injects.
func runSim(t *testing.T, g *dps.Graph, nodes int, start func(*core.Engine)) (*core.Engine, core.Result) {
	t.Helper()
	eng, err := core.New(core.Config{
		Graph:     g,
		Platform:  core.NewSimPlatform(nodes, netmodel.FastEthernet(), cpumodel.Defaults()),
		Durations: core.Executing(core.AnalyticSource()),
	})
	if err != nil {
		t.Fatal(err)
	}
	start(eng)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return eng, res
}

func pinCounts(t *testing.T, got Stats, want core.Result, transfers bool) {
	t.Helper()
	if got.Posts != want.Posts || got.ControlMsgs != want.ControlMsgs || got.Instances != want.Instances {
		t.Errorf("real posts/control/instances = %d/%d/%d, simulated %d/%d/%d",
			got.Posts, got.ControlMsgs, got.Instances, want.Posts, want.ControlMsgs, want.Instances)
	}
	if got.Invocations != want.Steps-want.Posts {
		t.Errorf("real invocations = %d, simulated steps - posts = %d", got.Invocations, want.Steps-want.Posts)
	}
	if transfers && got.Transfers != want.Transfers {
		t.Errorf("real transfers = %d, simulated %d", got.Transfers, want.Transfers)
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, simulated %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestExecutorsFailAlike runs malformed applications on both executors.
// Each must fail, and with the same error once the executor's package
// prefix is stripped: both apply the rules stated in internal/dps.
//
// An object delivered to a finished instance fails before its handler
// runs: in "nested merge posts 2", m1's Absorb runs exactly once on each
// executor, for the object its instance was posted.
func TestExecutorsFailAlike(t *testing.T) {
	forward := func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) }
	var m1Absorbs atomic.Int64
	for _, c := range []struct {
		name   string
		thread int // the injection's
		build  func() (g *dps.Graph, inject *dps.Op)
	}{
		{"nil post", 0, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(nil) }, forward, dps.RoundRobin, nil)
			return g, s
		}},
		{"post on edge 5 of 1", 0, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(func(ctx dps.Ctx, in dps.DataObject) { ctx.PostTo(5, in) }, forward, dps.RoundRobin, nil)
			return g, s
		}},
		{"route to thread 7 of 2", 0, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(forward, forward, func(dps.Routing) int { return 7 }, nil)
			return g, s
		}},
		{"leaf posts 0", 0, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(forward, func(dps.Ctx, dps.DataObject) {}, dps.RoundRobin, nil)
			return g, s
		}},
		{"leaf posts 2", 0, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(forward, func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in); ctx.Post(in) }, dps.RoundRobin, nil)
			return g, s
		}},
		{"instance routed to 9 of 2", 0, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(forward, forward, dps.RoundRobin, func(dps.DataObject, int) int { return 9 })
			return g, s
		}},
		{"inject into a merge", 0, func() (*dps.Graph, *dps.Op) {
			g, _, m := flatApp(forward, forward, dps.RoundRobin, nil)
			return g, m
		}},
		{"inject into thread 3 of 1", 3, func() (*dps.Graph, *dps.Op) {
			g, s, _ := flatApp(forward, forward, dps.RoundRobin, nil)
			return g, s
		}},
		{"nested merge posts 0", 0, func() (*dps.Graph, *dps.Op) { return nestedApp(0, &m1Absorbs) }},
		{"nested merge posts 2", 0, func() (*dps.Graph, *dps.Op) { return nestedApp(2, &m1Absorbs) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			once := c.name == "nested merge posts 2" // m1's Absorb runs exactly once
			g, op := c.build()
			eng, err := core.New(core.Config{Graph: g, Platform: core.NewSimPlatform(1, netmodel.FastEthernet(), cpumodel.Defaults())})
			if err != nil {
				t.Fatal(err)
			}
			eng.Inject(op, c.thread, &num{})
			_, simErr := eng.Run()
			if n := m1Absorbs.Swap(0); once && n != 1 {
				t.Errorf("simulated: m1's Absorb ran %d times, want 1", n)
			}

			g, op = c.build()
			rt, err := New(Config{Graph: g, Nodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			rt.Inject(op, c.thread, &num{})
			realErr := rt.Wait()
			if n := m1Absorbs.Swap(0); once && n != 1 {
				t.Errorf("real: m1's Absorb ran %d times, want 1", n)
			}

			if simErr == nil || realErr == nil {
				t.Fatalf("simulated error %v, real error %v: both executors must fail", simErr, realErr)
			}
			sim, simOK := strings.CutPrefix(simErr.Error(), "core: ")
			real, realOK := strings.CutPrefix(realErr.Error(), "parallel: ")
			if !simOK || !realOK || sim != real {
				t.Errorf("executors fail differently:\nsimulated %q\nreal      %q", simErr, realErr)
			}
		})
	}
}

// flatApp builds s → l → m: a split on one thread, a leaf on two threads
// reached by route, and a merge on two threads whose instances inst
// routes.
func flatApp(split dps.SplitFunc, leaf dps.LeafFunc, route dps.RouteFunc, inst dps.InstanceRouteFunc) (g *dps.Graph, s, m *dps.Op) {
	one := dps.NewCollection("one", 1, 1)
	two := dps.NewCollection("two", 2, 1)
	g = dps.NewGraph("flat")
	s = g.Split("s", one, split)
	l := g.Leaf("l", two, leaf)
	m = g.Merge("m", two, func(dps.DataObject) dps.MergeState { return &sumMerge{total: &atomic.Int64{}} })
	g.Connect(s, l, route)
	g.Connect(l, m, nil)
	g.PairOps(s, m, inst)
	return g, s, m
}

// nestedApp builds s1 → s2 → l → m2 → m1, where s1 and m1 pair around the
// s2–m2 pair, m2's Finish posts posts objects to m1 instead of one, and
// m1's Absorb calls add to m1Absorbs.
func nestedApp(posts int, m1Absorbs *atomic.Int64) (*dps.Graph, *dps.Op) {
	c := dps.NewCollection("c", 1, 1)
	g := dps.NewGraph("nested")
	forward := func(ctx dps.Ctx, in dps.DataObject) { ctx.Post(in) }
	s1 := g.Split("s1", c, forward)
	s2 := g.Split("s2", c, forward)
	l := g.Leaf("l", c, forward)
	m2 := g.Merge("m2", c, func(dps.DataObject) dps.MergeState { return reposter(posts) })
	m1 := g.Merge("m1", c, func(dps.DataObject) dps.MergeState { return absorbCounter{m1Absorbs} })
	g.Connect(s1, s2, dps.RoundRobin)
	g.Connect(s2, l, dps.RoundRobin)
	g.Connect(l, m2, nil)
	g.Connect(m2, m1, nil)
	g.PairOps(s1, m1, nil)
	g.PairOps(s2, m2, nil)
	return g, s1
}

// reposter is a merge state whose Finish posts its count of objects.
type reposter int

func (reposter) Absorb(dps.Ctx, dps.DataObject) {}
func (n reposter) Finish(ctx dps.Ctx) {
	for range int(n) {
		ctx.Post(&num{})
	}
}

// absorbCounter is a merge state that counts its Absorb calls.
type absorbCounter struct{ n *atomic.Int64 }

func (c absorbCounter) Absorb(dps.Ctx, dps.DataObject) { c.n.Add(1) }
func (absorbCounter) Finish(dps.Ctx)                   {}
