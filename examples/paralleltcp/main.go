// Parallel TCP example: run the LU factorization on the REAL DPS runtime —
// goroutine execution threads, data objects serialized over loopback TCP
// sockets, real kernels — and verify the distributed factors. This is the
// non-simulated half of the paper's premise: the same application code
// runs identically on the real runtime and inside the simulator.
package main

import (
	"fmt"
	"log"
	"time"

	"dpsim/internal/linalg"
	"dpsim/internal/lu"
	"dpsim/internal/parallel"
	"dpsim/internal/transport"
)

func main() {
	cfg := lu.Config{N: 240, R: 40, Nodes: 4, Pipelined: true}
	app, err := lu.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	codec := transport.NewCodec()
	lu.RegisterCodec(codec)

	rt, err := parallel.New(parallel.Config{
		Graph:  app.Graph,
		Nodes:  cfg.Nodes,
		Codec:  codec,
		UseTCP: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	orig := app.Prepare(rt.Store, 99)
	start := time.Now()
	rt.Inject(app.Init, 0, &lu.Seed{})
	if err := rt.Wait(); err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)

	got := app.Assemble(rt.Store)
	ref := orig.Clone()
	if _, err := linalg.BlockedLU(ref, cfg.R); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("factorized %dx%d (r=%d) across %d TCP-connected nodes in %v\n",
		cfg.N, cfg.N, cfg.R, cfg.Nodes, wall.Round(time.Millisecond))
	fmt.Printf("max |distributed - serial reference| = %.2e\n", got.MaxAbsDiff(ref))
	fmt.Println("\niteration start times (wall clock):")
	for _, ph := range rt.Phases() {
		fmt.Printf("  %-8s at %8v\n", ph.Name, ph.Elapsed.Round(time.Microsecond))
	}
}
