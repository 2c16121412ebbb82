// Stencil example: a Jacobi heat-diffusion solver with neighborhood halo
// exchange (paper §2's relative-index communication pattern), verified
// against a serial reference and then scaled across node counts with the
// simulator — a second application domain on the same DPS framework.
package main

import (
	"fmt"
	"log"
	"math"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
	"dpsim/internal/stencil"
)

func main() {
	// Correctness: real computations inside the simulation.
	cfg := stencil.Config{N: 64, Bands: 8, Nodes: 4, Iterations: 20}
	app, err := stencil.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        core.NewSimPlatform(cfg.Nodes, netmodel.FastEthernet(), cpumodel.Defaults()),
		RunComputations: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	init := app.Prepare(eng.Store, 7)
	app.Start(eng)
	if _, err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	got := app.Assemble(eng.Store)
	want := stencil.SerialReference(init, cfg.Iterations)
	var worst float64
	for i := range want {
		for j := range want[i] {
			worst = math.Max(worst, math.Abs(got[i][j]-want[i][j]))
		}
	}
	fmt.Printf("Jacobi %dx%d, %d bands, %d iterations: max |parallel-serial| = %.1e\n",
		cfg.N, cfg.N, cfg.Bands, cfg.Iterations, worst)
	fmt.Print("residuals: ")
	for _, r := range app.Residuals()[:5] {
		fmt.Printf("%.3f ", r)
	}
	fmt.Println("...")

	// Scaling study: predicted time vs node count (PDEXEC NOALLOC).
	fmt.Println("\npredicted time of a 4096x4096 grid, 100 sweeps (16 bands):")
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		app, err := stencil.Build(stencil.Config{N: 4096, Bands: 16, Nodes: nodes, Iterations: 100})
		if err != nil {
			log.Fatal(err)
		}
		eng, err := core.New(core.Config{
			Graph:           app.Graph,
			Platform:        core.NewSimPlatform(nodes, netmodel.FastEthernet(), cpumodel.Defaults()),
			NoAlloc:         true,
			PerStepOverhead: 25 * eventq.Microsecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		app.Start(eng)
		res, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		serial := float64(app.SerialWork()) * 100
		eff := serial / (float64(nodes) * float64(res.Elapsed))
		fmt.Printf("  %2d nodes: %7.1f s   efficiency %5.1f%%\n",
			nodes, res.Elapsed.Seconds(), 100*eff)
	}
}
