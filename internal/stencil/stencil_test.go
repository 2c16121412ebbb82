package stencil

import (
	"fmt"
	"math"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
)

func platform(nodes int) *core.SimPlatform {
	return core.NewSimPlatform(nodes, netmodel.FastEthernet(), cpumodel.Defaults())
}

// runReal executes the solver with real computations and compares against
// the serial reference.
func runReal(t *testing.T, cfg Config, seed uint64) *App {
	t.Helper()
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:     app.Graph,
		Platform:  platform(cfg.Nodes),
		Durations: core.Executing(core.AnalyticSource()),
	})
	if err != nil {
		t.Fatal(err)
	}
	init := app.Prepare(eng.Store, seed)
	app.Start(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	got := app.Assemble(eng.Store)
	want := SerialReference(init, cfg.Iterations)
	var worst float64
	for i := range want {
		for j := range want[i] {
			d := math.Abs(got[i][j] - want[i][j])
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-12 {
		t.Fatalf("distributed Jacobi differs from serial reference by %g", worst)
	}
	return app
}

func TestJacobiMatchesSerial(t *testing.T) {
	runReal(t, Config{N: 24, Bands: 4, Nodes: 2, Iterations: 5}, 1)
}

func TestJacobiTwoBands(t *testing.T) {
	runReal(t, Config{N: 16, Bands: 2, Nodes: 2, Iterations: 3}, 2)
}

func TestJacobiManyBandsFewNodes(t *testing.T) {
	runReal(t, Config{N: 32, Bands: 8, Nodes: 3, Iterations: 4}, 3)
}

func TestJacobiSingleIteration(t *testing.T) {
	runReal(t, Config{N: 12, Bands: 3, Nodes: 1, Iterations: 1}, 4)
}

func TestResidualDecreases(t *testing.T) {
	app := runReal(t, Config{N: 24, Bands: 4, Nodes: 2, Iterations: 8}, 5)
	res := app.Residuals()
	if len(res) != 8 {
		t.Fatalf("residuals = %d", len(res))
	}
	// Jacobi on a diffusion problem: the residual must shrink overall.
	if res[7] >= res[0] {
		t.Fatalf("residual did not decrease: first %g last %g", res[0], res[7])
	}
	for i, r := range res {
		if r < 0 || math.IsNaN(r) {
			t.Fatalf("residual[%d] = %v", i, r)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, Bands: 2, Nodes: 1, Iterations: 1},
		{N: 10, Bands: 3, Nodes: 1, Iterations: 1}, // bands don't divide
		{N: 10, Bands: 1, Nodes: 1, Iterations: 1}, // one band: no exchange
		{N: 10, Bands: 2, Nodes: 0, Iterations: 1},
		{N: 10, Bands: 2, Nodes: 1, Iterations: 0},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// modelTime runs in pure PDEXEC/NOALLOC mode.
func modelTime(t *testing.T, cfg Config) eventq.Time {
	t.Helper()
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        platform(cfg.Nodes),
		NoAlloc:         true,
		PerStepOverhead: 25 * eventq.Microsecond,
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

func TestModelScaling(t *testing.T) {
	slow := modelTime(t, Config{N: 4096, Bands: 16, Nodes: 2, Iterations: 10})
	fast := modelTime(t, Config{N: 4096, Bands: 16, Nodes: 8, Iterations: 10})
	if fast >= slow {
		t.Fatalf("8 nodes (%v) not faster than 2 nodes (%v)", fast, slow)
	}
	speedup := float64(slow) / float64(fast)
	if speedup < 1.5 {
		t.Fatalf("speedup %.2f too small for a compute-bound stencil", speedup)
	}
}

func TestModelDeterministic(t *testing.T) {
	cfg := Config{N: 2048, Bands: 8, Nodes: 4, Iterations: 6}
	if modelTime(t, cfg) != modelTime(t, cfg) {
		t.Fatal("stencil model runs not deterministic")
	}
}

func TestPhasesPerIteration(t *testing.T) {
	app, err := Build(Config{N: 1024, Bands: 4, Nodes: 4, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(core.Config{Graph: app.Graph, Platform: platform(4), NoAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	app.Start(eng)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	marks := eng.Phases()
	if len(marks) != 5 {
		t.Fatalf("phases = %d", len(marks))
	}
	for i, m := range marks {
		if m.Name != fmt.Sprintf("iter:%d", i) {
			t.Fatalf("phase %d = %q", i, m.Name)
		}
	}
}

func TestHaloTrafficScalesWithBands(t *testing.T) {
	run := func(bands int) uint64 {
		app, err := Build(Config{N: 1024, Bands: bands, Nodes: 4, Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(core.Config{Graph: app.Graph, Platform: platform(4), NoAlloc: true})
		if err != nil {
			t.Fatal(err)
		}
		app.Start(eng)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Posts
	}
	few := run(4)
	many := run(16)
	if many <= few {
		t.Fatalf("more bands (%d posts) should move more halo objects than fewer (%d)", many, few)
	}
}

func TestSerialWorkPositive(t *testing.T) {
	app, err := Build(Config{N: 1024, Bands: 4, Nodes: 2, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if app.SerialWork() <= 0 {
		t.Fatal("serial work not positive")
	}
}

func BenchmarkStencilModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := Build(Config{N: 2048, Bands: 8, Nodes: 4, Iterations: 8})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.New(core.Config{Graph: app.Graph, Platform: platform(4), NoAlloc: true})
		if err != nil {
			b.Fatal(err)
		}
		app.Start(eng)
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
