// Command lusim measures and predicts one LU factorization configuration:
// the workhorse for exploring parallelization strategies with the
// simulator (paper §6–8).
//
// Usage:
//
//	lusim [-n 2592] [-r 324] [-nodes 4] [-threads 0] [-multthreads 0]
//	      [-multnodes 0] [-p] [-window 0] [-pm] [-kill "1:4,3:2"]
//	      [-seeds 3] [-iters]
//
// -kill takes comma-separated afterIteration:threads pairs, e.g. "1:4"
// reproduces the paper's "kill 4 after iteration 1".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/metrics"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its environment made explicit, so the CLI smoke
// test can drive the binary's full path in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lusim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 2592, "matrix size")
	r := fs.Int("r", 324, "block size (must divide n)")
	nodes := fs.Int("nodes", 4, "storage nodes")
	threads := fs.Int("threads", 0, "worker threads (default n/r)")
	multThreads := fs.Int("multthreads", 0, "multiplication threads (default threads)")
	multNodes := fs.Int("multnodes", 0, "multiplication nodes (default nodes)")
	pipelined := fs.Bool("p", false, "pipelined flow graph (P)")
	window := fs.Int("window", 0, "flow-control window (FC, 0=off)")
	pm := fs.Bool("pm", false, "parallel sub-block multiplication (PM)")
	kill := fs.String("kill", "", "removals, e.g. 1:4,3:2 (after iter 1 shrink to 4 mult threads, ...)")
	seeds := fs.Int("seeds", 3, "measured repetitions")
	iters := fs.Bool("iters", false, "print per-iteration dynamic efficiency")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "lusim: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments: %v", fs.Args())
	case *seeds < 1:
		return usage("-seeds %d: need at least 1 measured repetition", *seeds)
	}

	cfg := lu.Config{
		N: *n, R: *r, Nodes: *nodes, Threads: *threads,
		MultThreads: *multThreads, MultNodes: *multNodes,
		Pipelined: *pipelined, Window: *window, ParallelMult: *pm,
	}
	if *kill != "" {
		for _, part := range strings.Split(*kill, ",") {
			var after, to int
			if _, err := fmt.Sscanf(part, "%d:%d", &after, &to); err != nil {
				fmt.Fprintf(stderr, "lusim: bad -kill entry %q: %v\n", part, err)
				return 2
			}
			cfg.Removals = append(cfg.Removals, lu.Removal{AfterIter: after, MultThreads: to})
		}
	}

	run, err := experiments.MeasureAndPredict("lusim", cfg, experiments.Setup{Seeds: *seeds})
	if err != nil {
		fmt.Fprintf(stderr, "lusim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "configuration: n=%d r=%d nodes=%d threads=%d multThreads=%d multNodes=%d P=%v FC=%d PM=%v removals=%v\n",
		run.Cfg.N, run.Cfg.R, run.Cfg.Nodes, run.Cfg.Threads, run.Cfg.MultThreads,
		run.Cfg.MultNodes, run.Cfg.Pipelined, run.Cfg.Window, run.Cfg.ParallelMult, run.Cfg.Removals)
	fmt.Fprintf(stdout, "serial (model):    %8.1f s\n", lu.TotalSerialWork(run.Cfg.Costs, run.Cfg.N, run.Cfg.R).Seconds())
	fmt.Fprintf(stdout, "measured (testbed): ")
	for _, m := range run.Measured {
		fmt.Fprintf(stdout, "%7.1f s", m)
	}
	fmt.Fprintf(stdout, "   mean %.1f s\n", run.MeasuredMean())
	fmt.Fprintf(stdout, "predicted (sim):   %8.1f s   (error %+.1f%%)\n",
		run.Predicted, 100*(run.Predicted-run.MeasuredMean())/run.MeasuredMean())
	fmt.Fprintf(stdout, "mean dynamic efficiency: measured %.1f%%, predicted %.1f%%\n",
		100*metrics.MeanEfficiency(run.MeasuredIters), 100*metrics.MeanEfficiency(run.PredictedIters))

	if *iters {
		fmt.Fprintln(stdout, "\niteration  serial[s]  elapsed(meas)  eff(meas)  elapsed(sim)  eff(sim)  nodes")
		for i, it := range run.MeasuredIters {
			var sim metrics.IterationStat
			if i < len(run.PredictedIters) {
				sim = run.PredictedIters[i]
			}
			fmt.Fprintf(stdout, "%9d  %9.1f  %13.1f  %8.1f%%  %12.1f  %7.1f%%  %5d\n",
				it.Index+1, it.SerialWork.Seconds(), it.Elapsed.Seconds(),
				100*it.Efficiency, sim.Elapsed.Seconds(), 100*sim.Efficiency, it.Nodes)
		}
	}
	return 0
}
