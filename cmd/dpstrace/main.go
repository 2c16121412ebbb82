// Command dpstrace runs a small LU factorization on the simulator with
// tracing enabled and renders the timing diagram as an ASCII Gantt chart —
// the textual equivalent of the paper's Figs. 2, 4 and 6 (flow-control
// interleaving becomes directly visible by comparing -window 0 against a
// small window).
//
// Usage:
//
//	dpstrace [-n 648] [-r 162] [-nodes 4] [-p] [-window 0] [-width 100]
//	dpstrace -json > lu.trace.json   # Chrome trace-event JSON instead
//
// With -json the same timing diagram is emitted through the shared
// Chrome trace-event exporter (internal/obs) to stdout: one process per
// node, per-thread compute and transfer tracks — load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/lu"
	"dpsim/internal/netmodel"
	"dpsim/internal/obs"
	"dpsim/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its environment made explicit, so the CLI smoke
// test can drive the binary's full path in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpstrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 648, "matrix size")
	r := fs.Int("r", 162, "block size")
	nodes := fs.Int("nodes", 4, "nodes")
	pipelined := fs.Bool("p", false, "pipelined flow graph")
	window := fs.Int("window", 0, "flow-control window")
	width := fs.Int("width", 100, "gantt width in characters")
	jsonOut := fs.Bool("json", false, "emit Chrome trace-event JSON (Perfetto) to stdout instead of the Gantt chart")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dpstrace: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dpstrace: %v\n", err)
		return 1
	}

	app, err := lu.Build(lu.Config{
		N: *n, R: *r, Nodes: *nodes, Pipelined: *pipelined, Window: *window,
	})
	if err != nil {
		return fail(err)
	}
	rec := trace.NewRecorder()
	eng, err := core.New(core.Config{
		Graph:           app.Graph,
		Platform:        core.NewSimPlatform(*nodes, netmodel.FastEthernet(), cpumodel.Defaults()),
		NoAlloc:         true,
		PerStepOverhead: 25 * eventq.Microsecond,
		Trace:           rec.Hook,
	})
	if err != nil {
		return fail(err)
	}
	app.Start(eng)
	res, err := eng.Run()
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		var tr obs.Trace
		rec.AppendChromeTrace(&tr)
		if err := tr.WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	fmt.Fprintf(stdout, "predicted running time: %v  (steps %d, transfers %d)\n\n",
		res.Elapsed, res.Steps, res.Transfers)
	fmt.Fprintln(stdout, rec.Gantt(*width))
	fmt.Fprintln(stdout, rec.Summary())
	return 0
}
