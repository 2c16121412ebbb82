// LU factorization example: run the paper's test application (§5) on the
// simulator with real computations, verify the distributed result against
// the serial reference, and compare the basic and pipelined flow graphs.
package main

import (
	"fmt"
	"log"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/linalg"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
)

func main() {
	// Small enough to execute the real kernels during the simulation
	// (direct execution of the computations, paper §4).
	cfg := lu.Config{N: 96, R: 16, Nodes: 4}

	fmt.Println("== correctness: simulated parallel LU vs serial reference ==")
	app, err := lu.Build(cfg)
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
	orig := app.Prepare(eng.Store, 2026)
	app.Start(eng)
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	got := app.Assemble(eng.Store)
	ref := orig.Clone()
	if _, err := linalg.BlockedLU(ref, cfg.R); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max |distributed - reference| = %.2e  (virtual time %v)\n\n",
		got.MaxAbsDiff(ref), res.Elapsed)

	fmt.Println("== performance: basic vs pipelined flow graph (PDEXEC, 2592x2592) ==")
	for _, variant := range []struct {
		label string
		cfg   lu.Config
	}{
		{"basic,     r=324", lu.Config{N: 2592, R: 324, Nodes: 4}},
		{"pipelined, r=324", lu.Config{N: 2592, R: 324, Nodes: 4, Pipelined: true}},
		{"pipelined+FC     ", lu.Config{N: 2592, R: 324, Nodes: 4, Pipelined: true, Window: 16}},
	} {
		app, err := lu.Build(variant.cfg)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := core.New(core.Config{
			Graph:           app.Graph,
			Platform:        core.NewSimPlatform(4, netmodel.FastEthernet(), cpumodel.Defaults()),
			NoAlloc:         true, // PDEXEC NOALLOC: no payloads, sizes counted
			PerStepOverhead: 25 * eventq.Microsecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		app.Start(eng)
		r, err := eng.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s  predicted %7.1f s\n", variant.label, r.Elapsed.Seconds())
	}
	fmt.Printf("serial reference (cost model): %.1f s\n",
		lu.TotalSerialWork(lu.DefaultCostModel(), 2592, 324).Seconds())
}
