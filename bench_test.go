package dpsim

// One benchmark per evaluation artifact of the paper: each regenerates the
// corresponding table or figure at reduced (Quick) scale with one measured
// repetition, so `go test -bench=.` demonstrates every experiment end to
// end. cmd/paperrepro runs the same experiments at full paper scale.

import (
	"testing"

	"dpsim/internal/cluster"
	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/metrics"
	"dpsim/internal/netmodel"
	"dpsim/internal/sched"
)

func quickSetup() experiments.Setup {
	return experiments.Setup{Quick: true, Seeds: 1}
}

// BenchmarkTable1 regenerates Table 1: wall time, allocation volume and
// predicted time of direct execution, PDEXEC and PDEXEC NOALLOC.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Fig. 8 (modifications vs granularity, 4 nodes).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig8(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9 (modifications at fine granularity).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig9(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10 (granularity × strategy, 8 nodes).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig10(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11 regenerates Fig. 11 (dynamic efficiency per iteration).
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig11(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12 regenerates Fig. 12 (thread-removal strategies).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig12(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 regenerates Fig. 13 (prediction-error histogram) from the
// Fig. 12 sample set.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, samples, err := experiments.Fig12(quickSetup())
		if err != nil {
			b.Fatal(err)
		}
		tab, hist := experiments.Fig13(samples)
		if len(tab.Rows) == 0 || hist == "" {
			b.Fatal("empty fig13 output")
		}
	}
}

// BenchmarkAblations exercises the §4 model knobs (contention, comm CPU
// overhead, processor sharing, faster-network what-ifs).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(quickSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterServer runs the §9 future-work scenario: every
// registered scheduler on a malleable cluster serving LU-profile jobs.
func BenchmarkClusterServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range sched.Names() {
			policy, err := sched.New(name, nil)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := cluster.NewSim(16, policy, cluster.PoissonWorkload(24, 16, 12, uint64(i)+1))
			if err != nil {
				b.Fatal(err)
			}
			if res := sim.Run(); res.Unfinished != 0 {
				b.Fatalf("%s: %d unfinished jobs", name, res.Unfinished)
			}
		}
	}
}

// BenchmarkPredictionOnly measures the cost of a single PDEXEC NOALLOC
// prediction (the simulator's fast path, Table 1's bottom row).
func BenchmarkPredictionOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app, err := lu.Build(lu.Config{N: 1296, R: 162, Nodes: 4, Pipelined: true})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := core.New(core.Config{
			Graph:    app.Graph,
			Platform: core.NewSimPlatform(4, netmodel.FastEthernet(), cpumodel.Defaults()),
			NoAlloc:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		app.Start(eng)
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureAndPredict measures one full measured+predicted pair
// (the unit of every figure).
func BenchmarkMeasureAndPredict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := lu.Config{N: 1296, R: 162, Nodes: 4}
		run, err := experiments.MeasureAndPredict("bench", cfg, quickSetup())
		if err != nil {
			b.Fatal(err)
		}
		if metrics.Mean(run.Measured) <= 0 {
			b.Fatal("no measurement")
		}
	}
}
