package lu

import (
	"fmt"
	"strings"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/linalg"
	"dpsim/internal/netmodel"
	"dpsim/internal/rng"
)

func simPlatform(nodes int) *core.SimPlatform {
	return core.NewSimPlatform(nodes, netmodel.FastEthernet(), cpumodel.Defaults())
}

// runCorrect builds the app, runs it with real kernels on the simulator
// platform, and verifies the distributed factors against the serial
// blocked reference.
func runCorrect(t *testing.T, cfg Config, seed uint64) core.Result {
	t.Helper()
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        simPlatform(maxInt(cfg.Nodes, cfg.MultNodes)),
		RunComputations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := app.Prepare(eng.Store, seed)
	app.Start(eng)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := app.Assemble(eng.Store)

	ref := orig.Clone()
	piv, err := linalg.BlockedLU(ref, cfg.R)
	if err != nil {
		t.Fatal(err)
	}
	_ = piv
	if !got.Equalish(ref, 1e-9*float64(cfg.N)) {
		t.Fatalf("distributed LU differs from reference by %g", got.MaxAbsDiff(ref))
	}
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBasicGraphCorrect(t *testing.T) {
	runCorrect(t, Config{N: 24, R: 6, Nodes: 2}, 1)
}

func TestBasicGraphSingleNode(t *testing.T) {
	runCorrect(t, Config{N: 16, R: 4, Nodes: 1}, 2)
}

func TestPipelinedGraphCorrect(t *testing.T) {
	runCorrect(t, Config{N: 24, R: 6, Nodes: 2, Pipelined: true}, 3)
}

func TestFlowControlCorrect(t *testing.T) {
	runCorrect(t, Config{N: 24, R: 6, Nodes: 2, Pipelined: true, Window: 2}, 4)
}

func TestParallelMultCorrect(t *testing.T) {
	runCorrect(t, Config{N: 24, R: 6, Nodes: 2, ParallelMult: true, SubBlock: 3}, 5)
}

func TestAllVariantsCombinedCorrect(t *testing.T) {
	runCorrect(t, Config{
		N: 24, R: 6, Nodes: 3,
		Pipelined: true, Window: 3, ParallelMult: true, SubBlock: 2,
	}, 6)
}

func TestSingleBlockMatrix(t *testing.T) {
	// B = 1: the init split factors the only block and posts nothing.
	runCorrect(t, Config{N: 8, R: 8, Nodes: 1}, 7)
}

func TestTwoBlocks(t *testing.T) {
	runCorrect(t, Config{N: 12, R: 6, Nodes: 2}, 8)
}

func TestRemovalCorrect(t *testing.T) {
	runCorrect(t, Config{
		N: 32, R: 4, Nodes: 2,
		MultThreads: 4, MultNodes: 4,
		Removals: []Removal{{AfterIter: 2, MultThreads: 2}},
	}, 9)
}

func TestRemovalStagedCorrect(t *testing.T) {
	runCorrect(t, Config{
		N: 32, R: 4, Nodes: 2, Pipelined: true,
		MultThreads: 4, MultNodes: 4,
		Removals: []Removal{{AfterIter: 2, MultThreads: 3}, {AfterIter: 4, MultThreads: 1}},
	}, 10)
}

func TestMoreBlocksThanThreads(t *testing.T) {
	// 8 blocks on 3 threads: cyclic ownership.
	runCorrect(t, Config{N: 32, R: 4, Nodes: 3, Threads: 3}, 11)
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 10, R: 3, Nodes: 1},                                                      // R doesn't divide N
		{N: 12, R: 4, Nodes: 0},                                                      // no nodes
		{N: 12, R: 4, Nodes: 1, ParallelMult: true, SubBlock: 3},                     // s doesn't divide r
		{N: 12, R: 4, Nodes: 1, Removals: []Removal{{AfterIter: 9, MultThreads: 1}}}, // removal too late
		{N: 12, R: 4, Nodes: 1, Removals: []Removal{{AfterIter: 1, MultThreads: 0}}}, // zero threads
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	app, err := Build(Config{N: 24, R: 6, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if app.Cfg.Threads != 4 || app.Cfg.MultThreads != 4 || app.Cfg.MultNodes != 4 {
		t.Fatalf("defaults: %+v", app.Cfg)
	}
	if app.Blocks() != 4 {
		t.Fatalf("blocks = %d", app.Blocks())
	}
}

// --- timing-model behaviour (PDEXEC: kernels skipped) ---

// modelTime runs the app in pure model mode and returns the elapsed time.
func modelTime(t *testing.T, cfg Config) eventq.Time {
	t.Helper()
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        simPlatform(maxInt(cfg.Nodes, cfg.MultNodes)),
		NoAlloc:         true,
		PerStepOverhead: 30 * eventq.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	app.Start(eng)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Elapsed
}

func TestModelMoreNodesFaster(t *testing.T) {
	slow := modelTime(t, Config{N: 648, R: 81, Nodes: 2})
	fast := modelTime(t, Config{N: 648, R: 81, Nodes: 4})
	if fast >= slow {
		t.Fatalf("4 nodes (%v) not faster than 2 nodes (%v)", fast, slow)
	}
}

func TestModelPipeliningHelps(t *testing.T) {
	basic := modelTime(t, Config{N: 648, R: 81, Nodes: 4})
	pipe := modelTime(t, Config{N: 648, R: 81, Nodes: 4, Pipelined: true})
	if pipe >= basic {
		t.Fatalf("pipelined (%v) not faster than basic (%v)", pipe, basic)
	}
}

func TestModelRemovalCostsLittle(t *testing.T) {
	// Removing multiplication threads late in the run should cost only a
	// few percent (paper Fig. 12).
	full := modelTime(t, Config{
		N: 1296, R: 162, Nodes: 4, Threads: 8,
		MultThreads: 8, MultNodes: 8,
	})
	killed := modelTime(t, Config{
		N: 1296, R: 162, Nodes: 4, Threads: 8,
		MultThreads: 8, MultNodes: 8,
		Removals: []Removal{{AfterIter: 1, MultThreads: 4}},
	})
	if killed < full {
		t.Fatalf("removal made the run faster: %v < %v", killed, full)
	}
	slowdown := float64(killed)/float64(full) - 1
	if slowdown > 0.35 {
		t.Fatalf("removing half the mult threads after iter 1 cost %.0f%%, expected a moderate penalty", slowdown*100)
	}
}

func TestModelDeterministic(t *testing.T) {
	cfg := Config{N: 648, R: 81, Nodes: 4, Pipelined: true, Window: 8}
	if modelTime(t, cfg) != modelTime(t, cfg) {
		t.Fatal("model runs are not deterministic")
	}
}

func TestPhaseMarksPerIteration(t *testing.T) {
	app, err := Build(Config{N: 648, R: 81, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{Graph: app.Graph, Platform: simPlatform(4), NoAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	app.Start(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	marks := eng.Phases()
	if len(marks) != 8 {
		t.Fatalf("phase marks = %d, want 8 iterations", len(marks))
	}
	for i, m := range marks {
		if m.Name != fmt.Sprintf("iter:%d", i) {
			t.Fatalf("mark %d = %q", i, m.Name)
		}
		if i > 0 && m.Time <= marks[i-1].Time {
			t.Fatalf("iteration %d started at %v, not after %v", i, m.Time, marks[i-1].Time)
		}
	}
}

func TestAllocationHistoryOnRemoval(t *testing.T) {
	app, err := Build(Config{
		N: 648, R: 81, Nodes: 4, Threads: 8,
		MultThreads: 8, MultNodes: 8,
		Removals: []Removal{{AfterIter: 1, MultThreads: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{Graph: app.Graph, Platform: simPlatform(8), NoAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	app.Start(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := eng.Allocations()
	first, last := allocs[0], allocs[len(allocs)-1]
	if first.Nodes != 8 {
		t.Fatalf("initial allocation %d nodes, want 8", first.Nodes)
	}
	if last.Nodes != 4 {
		t.Fatalf("final allocation %d nodes, want 4", last.Nodes)
	}
}

// --- sizes and serial work ---

func TestObjectSizesScaleWithR(t *testing.T) {
	small := &MultReq{R: 10, L21: linalg.NewMat(10, 10), T12: linalg.NewMat(10, 10)}
	big := &MultReq{R: 100, L21: linalg.NewMat(100, 100), T12: linalg.NewMat(100, 100)}
	ss, bs := sizeOf(small), sizeOf(big)
	if bs <= ss {
		t.Fatalf("sizes: r=10 → %d, r=100 → %d", ss, bs)
	}
	// Payload dominated: 2·r²·8 bytes.
	if bs < 2*100*100*8 {
		t.Fatalf("r=100 MultReq only %d bytes", bs)
	}
}

func TestNoAllocSizesMatchAllocated(t *testing.T) {
	alloc := &TrsmReq{Iter: 1, Block: 2, R: 16, L11: linalg.NewMat(16, 16), Piv: make([]int, 16)}
	noalloc := &TrsmReq{Iter: 1, Block: 2, R: 16}
	if sizeOf(alloc) != sizeOf(noalloc) {
		t.Fatalf("NOALLOC size %d != allocated size %d", sizeOf(noalloc), sizeOf(alloc))
	}
	a2 := &PMRes{S: 8, Prod: linalg.NewMat(8, 8)}
	n2 := &PMRes{S: 8}
	if sizeOf(a2) != sizeOf(n2) {
		t.Fatal("PMRes NOALLOC size mismatch")
	}
}

func sizeOf(obj dps.DataObject) int64 { return dps.SizeOf(obj) }

func TestSerialWorkDecreases(t *testing.T) {
	c := DefaultCostModel()
	prev := SerialWork(c, 2592, 324, 0)
	for k := 1; k < 8; k++ {
		cur := SerialWork(c, 2592, 324, k)
		if cur >= prev {
			t.Fatalf("serial work not decreasing at iteration %d: %v >= %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestTotalSerialWorkCalibration(t *testing.T) {
	// The default cost model must land near the paper's 185.1 s serial
	// run (r=216) within a loose band.
	total := TotalSerialWork(DefaultCostModel(), 2592, 216).Seconds()
	if total < 150 || total > 230 {
		t.Fatalf("serial 2592²/r=216 factorization modeled at %.1fs, want ≈185s", total)
	}
}

func TestViewCloneInMarshalNonCompact(t *testing.T) {
	// matPayload must serialize non-compact views correctly.
	m := linalg.NewMatFrom(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	v := m.View(1, 1, 2, 2)
	obj := &TrsmDone{R: 2, T12: v}
	compact := &TrsmDone{R: 2, T12: v.Clone()}
	if sizeOf(obj) != sizeOf(compact) {
		t.Fatalf("non-compact view size %d != compact %d", sizeOf(obj), sizeOf(compact))
	}
}

func TestDirectExecutionSmall(t *testing.T) {
	// Direct execution: kernels run and wall time is measured.
	cfg := Config{N: 24, R: 6, Nodes: 2}
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:    app.Graph,
		Platform: simPlatform(2),
		Mode:     dps.ModeDirect,
		CPUScale: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := app.Prepare(eng.Store, 20)
	app.Start(eng)
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no time measured")
	}
	got := app.Assemble(eng.Store)
	ref := orig.Clone()
	if _, err := linalg.BlockedLU(ref, cfg.R); err != nil {
		t.Fatal(err)
	}
	if !got.Equalish(ref, 1e-8*float64(cfg.N)) {
		t.Fatalf("direct-mode LU wrong by %g", got.MaxAbsDiff(ref))
	}
}

func TestRandomizedVariantsProperty(t *testing.T) {
	// Randomized sweep: any variant combination must factor correctly.
	src := rng.New(77)
	for trial := 0; trial < 6; trial++ {
		r := []int{4, 6, 8}[src.Intn(3)]
		blocks := src.Intn(3) + 2
		cfg := Config{
			N:         r * blocks,
			R:         r,
			Nodes:     src.Intn(3) + 1,
			Pipelined: src.Intn(2) == 0,
		}
		if src.Intn(2) == 0 {
			cfg.Window = src.Intn(4) + 1
		}
		if src.Intn(2) == 0 && r%2 == 0 {
			cfg.ParallelMult = true
			cfg.SubBlock = r / 2
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runCorrect(t, cfg, uint64(trial)+100)
		})
	}
}

func TestGraphNamesUnrolled(t *testing.T) {
	app, err := Build(Config{N: 24, R: 6, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, op := range app.Graph.Ops() {
		names = append(names, op.Name())
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"init", "trsm[0]", "collect[2]", "next[2]", "flip[3]", "done"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing op %q in %s", want, joined)
		}
	}
}

func BenchmarkModelRun648(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := Build(Config{N: 648, R: 81, Nodes: 4, Pipelined: true})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.New(core.Config{Graph: app.Graph, Platform: simPlatform(4), NoAlloc: true})
		if err != nil {
			b.Fatal(err)
		}
		app.Start(eng)
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistributedFactorsSolveSystem closes the loop: the factors computed
// by the parallel DPS application must solve a linear system.
func TestDistributedFactorsSolveSystem(t *testing.T) {
	cfg := Config{N: 24, R: 6, Nodes: 2, Pipelined: true}
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        simPlatform(2),
		RunComputations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := app.Prepare(eng.Store, 31)
	app.Start(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	factors := app.Assemble(eng.Store)
	refPiv, err := linalg.BlockedLU(orig.Clone(), cfg.R)
	if err != nil {
		t.Fatal(err)
	}
	// Build b = A·ones and solve with the distributed factors.
	n := cfg.N
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += orig.At(i, j)
		}
	}
	x, err := linalg.SolveLU(factors, refPiv, b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if v < 0.9999 || v > 1.0001 {
			t.Fatalf("x[%d] = %v, want 1", i, v)
		}
	}
}
