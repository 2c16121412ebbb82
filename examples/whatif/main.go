// What-if example: the parametric-model use case of paper §4 — "one may
// modify the bandwidth and latency parameters to evaluate the benefits of
// a faster network, or reduce the duration of various operations to
// identify the ones that should be optimized".
package main

import (
	"fmt"
	"log"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
)

func predict(cfg lu.Config, np netmodel.Params, speedup map[string]float64) float64 {
	app, err := lu.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// A kernel what-if is a duration source: it charges a sped-up
	// analytic estimate and runs no kernel.
	durations := core.AnalyticSource()
	if speedup != nil {
		durations = core.SourceFunc(func(key string, analytic eventq.Duration, _ func()) eventq.Duration {
			if f, ok := speedup[key]; ok {
				return eventq.Duration(float64(analytic) / f)
			}
			return analytic
		})
	}
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        core.NewSimPlatform(cfg.Nodes, np, cpumodel.Defaults()),
		Durations:       durations,
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
	return res.Elapsed.Seconds()
}

func main() {
	cfg := lu.Config{N: 2592, R: 162, Nodes: 8, Pipelined: true}
	base := netmodel.FastEthernet()
	baseline := predict(cfg, base, nil)
	fmt.Printf("baseline (Fast Ethernet, 8 nodes, pipelined r=162): %.1f s\n\n", baseline)

	fmt.Println("-- network what-ifs --")
	for _, w := range []struct {
		label string
		np    netmodel.Params
	}{
		{"2x bandwidth ", netmodel.Params{Latency: base.Latency, Bandwidth: 2 * base.Bandwidth, Contention: true}},
		{"10x bandwidth", netmodel.Params{Latency: base.Latency, Bandwidth: 10 * base.Bandwidth, Contention: true}},
		{"zero latency ", netmodel.Params{Latency: 0, Bandwidth: base.Bandwidth, Contention: true}},
	} {
		s := predict(cfg, w.np, nil)
		fmt.Printf("%s → %6.1f s  (%+5.1f%%)\n", w.label, s, 100*(s/baseline-1))
	}

	fmt.Println("\n-- kernel what-ifs (which operation is worth optimizing?) --")
	for _, w := range []struct {
		label string
		speed map[string]float64
	}{
		{"2x faster gemm", map[string]float64{"gemm:162": 2}},
		{"2x faster trsm", map[string]float64{"trsm:162": 2}},
		{"2x faster LU panel", map[string]float64{
			"lu:2592x162": 2, "lu:2430x162": 2, "lu:2268x162": 2, "lu:2106x162": 2,
			"lu:1944x162": 2, "lu:1782x162": 2, "lu:1620x162": 2, "lu:1458x162": 2,
			"lu:1296x162": 2, "lu:1134x162": 2, "lu:972x162": 2, "lu:810x162": 2,
			"lu:648x162": 2, "lu:486x162": 2, "lu:324x162": 2, "lu:162x162": 2,
		}},
	} {
		s := predict(cfg, base, w.speed)
		fmt.Printf("%-18s → %6.1f s  (%+5.1f%%)\n", w.label, s, 100*(s/baseline-1))
	}
	fmt.Println("\nThe tile multiplications dominate: optimizing gemm pays; trsm barely matters.")
}
