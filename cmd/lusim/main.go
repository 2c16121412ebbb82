// Command lusim measures and predicts one LU factorization configuration:
// the workhorse for exploring parallelization strategies with the
// simulator (paper §6–8). It also draws and exports the predicted run —
// the calibrated simulator run behind the "predicted (sim)" line — so a
// timing diagram (paper Figs. 2, 4 and 6) and the prediction never
// disagree, thread removals included.
//
// Usage:
//
//	lusim [-n 2592] [-r 324] [-nodes 4] [-threads 0] [-multthreads 0]
//	      [-multnodes 0] [-p] [-window 0] [-pm] [-kill "1:4,3:2"]
//	      [-seeds 3] [-iters] [-gantt 100] [-trace-out lu.trace.json]
//	      [-dot lu.dot]
//
// -kill takes comma-separated afterIteration:threads pairs, e.g. "1:4"
// reproduces the paper's "kill 4 after iteration 1".
//
// -gantt WIDTH prints the predicted run's ASCII timing diagram and its
// per-operation busy time after the report. -trace-out writes the same
// run as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing); -dot writes the configured flow graph in Graphviz
// syntax (render with `dot -Tsvg lu.dot`). Both files are replaced
// atomically; stdout carries the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/metrics"
	"dpsim/internal/obs"
	"dpsim/internal/sweep"
	"dpsim/internal/trace"
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
	gantt := fs.Int("gantt", 0, "print the predicted run's timing diagram this many characters wide (0=off)")
	traceOut := fs.String("trace-out", "", "write the predicted run as Chrome trace-event JSON to this file")
	dotOut := fs.String("dot", "", "write the configured flow graph in Graphviz dot syntax to this file")
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
	case *gantt < 0:
		return usage("-gantt %d: need a positive width, or 0 for none", *gantt)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"threads", *threads}, {"multthreads", *multThreads}, {"multnodes", *multNodes}, {"window", *window}} {
		if f.v < 0 {
			return usage("-%s %d: must not be negative (0 for the default)", f.name, f.v)
		}
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "lusim: %v\n", err)
		return 1
	}

	cfg := lu.Config{
		N: *n, R: *r, Nodes: *nodes, Threads: *threads,
		MultThreads: *multThreads, MultNodes: *multNodes,
		Pipelined: *pipelined, Window: *window, ParallelMult: *pm,
	}
	if *kill != "" {
		for _, part := range strings.Split(*kill, ",") {
			after, to, ok := strings.Cut(part, ":")
			a, errA := strconv.Atoi(after)
			t, errT := strconv.Atoi(to)
			if !ok || errA != nil || errT != nil {
				return usage("bad -kill entry %q: want afterIteration:threads, e.g. 1:4", part)
			}
			cfg.Removals = append(cfg.Removals, lu.Removal{AfterIter: a, MultThreads: t})
		}
	}

	setup := experiments.Setup{Seeds: *seeds}
	var rec *trace.Recorder
	if *gantt > 0 || *traceOut != "" {
		rec = trace.NewRecorder()
		setup.Trace = rec.Hook
	}
	run, err := experiments.MeasureAndPredict("lusim", cfg, setup)
	if err != nil {
		return fail(err)
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

	if *gantt > 0 {
		fmt.Fprintf(stdout, "\n%s\n%s", rec.Gantt(*gantt), rec.Summary())
	}
	if *traceOut != "" {
		err := sweep.WriteFileAtomic(*traceOut, func(w io.Writer) error {
			var tr obs.Trace
			rec.AppendChromeTrace(&tr)
			return tr.WriteJSON(w)
		})
		if err != nil {
			return fail(err)
		}
	}
	if *dotOut != "" {
		app, err := lu.Build(cfg)
		if err == nil {
			err = sweep.WriteFileAtomic(*dotOut, func(w io.Writer) error {
				_, err := io.WriteString(w, app.Graph.Dot())
				return err
			})
		}
		if err != nil {
			return fail(err)
		}
	}
	return 0
}
