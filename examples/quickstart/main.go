// Quickstart: build a minimal DPS flow graph (split → leaf → merge),
// simulate it on a 4-node virtual cluster, and print the predicted
// running time plus the timing diagram — the paper's Fig. 1/2 scenario.
package main

import (
	"fmt"
	"log"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
	"dpsim/internal/serial"
	"dpsim/internal/trace"
)

// workItem is a strongly typed DPS data object: a chunk id plus a payload
// whose size the simulated network sees.
type workItem struct {
	id      int
	payload int // bytes
}

func (w *workItem) Wire(s serial.Stream) {
	w.id = int(s.I64(int64(w.id)))
	s.Skip(w.payload)
}

// sumState aggregates the results of one split–merge instance.
type sumState struct{ sum int }

func (s *sumState) Absorb(ctx dps.Ctx, in dps.DataObject) { s.sum += in.(*workItem).id }
func (s *sumState) Finish(ctx dps.Ctx) {
	fmt.Printf("merge finished: sum of processed ids = %d (virtual time %v)\n", s.sum, ctx.Now())
}

func main() {
	const nodes = 4

	master := dps.NewCollection("master", 1, nodes)
	workers := dps.NewCollection("workers", nodes, nodes)

	g := dps.NewGraph("quickstart")
	split := g.Split("split", master, func(ctx dps.Ctx, in dps.DataObject) {
		// Divide the request into 8 sub-tasks of 1 MB each.
		for i := 1; i <= 8; i++ {
			ctx.Compute("prepare", 200*eventq.Microsecond, nil)
			ctx.Post(&workItem{id: i, payload: 1 << 20})
		}
	})
	compute := g.Leaf("compute", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("crunch", 50*eventq.Millisecond, nil) // the actual work
		ctx.Post(&workItem{id: in.(*workItem).id, payload: 1024})
	})
	merge := g.Merge("merge", master, func(dps.DataObject) dps.MergeState { return &sumState{} })

	g.Connect(split, compute, dps.RoundRobin)
	g.Connect(compute, merge, nil)
	g.PairOps(split, merge, nil)

	rec := trace.NewRecorder()
	eng, err := core.New(core.Config{
		Graph:    g,
		Platform: core.NewSimPlatform(nodes, netmodel.FastEthernet(), cpumodel.Defaults()),
		Trace:    rec.Hook,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng.Inject(split, 0, &workItem{})
	res, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("predicted running time on %d nodes: %v\n", nodes, res.Elapsed)
	fmt.Printf("atomic steps: %d, network transfers: %d, data objects: %d\n\n",
		res.Steps, res.Transfers, res.Posts)
	fmt.Println(rec.Gantt(90))
}
