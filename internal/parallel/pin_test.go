package parallel

import (
	"math"
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
	// Only the counts are pinned for stencil, on as many nodes as the
	// simulated run. The stencil pulls its halo rows, and nothing in its
	// flow graph stops a band from updating before a neighbour has fetched
	// the band's row for the same iteration. A concurrent executor
	// occasionally lets it (about 1 run in 3,000, 20 in 3,000 under
	// -race), and the grid is then wrong. The residuals also sum band
	// contributions in arrival order, so they agree only to rounding.
	t.Run("stencil", func(t *testing.T) {
		cfg := stencil.Config{N: 24, Bands: 4, Nodes: 2, Iterations: 5}
		live, err := stencil.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		codec := transport.NewCodec()
		stencil.RegisterCodec(codec)
		rt := runReal(t, Config{Graph: live.Graph, Nodes: cfg.Nodes, Codec: codec}, func(rt *Runtime) {
			live.Prepare(rt.Store, 3)
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
			t.Fatalf("%s[%d] = %v, simulated %v", what, i, got[i], want[i])
		}
	}
}
