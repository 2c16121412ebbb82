// Command dpsdot prints a DPS flow graph in Graphviz dot syntax (or a
// plain-text summary) — the textual counterpart of the paper's flow-graph
// figures. Render with `dpsdot | dot -Tsvg > graph.svg`.
//
// Usage:
//
//	dpsdot [-app lu|stencil] [-n 648] [-r 162] [-nodes 4] [-p] [-pm]
//	       [-window 0] [-summary]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dpsim/internal/lu"
	"dpsim/internal/stencil"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its environment made explicit, so the CLI smoke
// test can drive the binary's full path in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpsdot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "lu", "application: lu or stencil")
	n := fs.Int("n", 648, "problem size")
	r := fs.Int("r", 162, "LU block size")
	nodes := fs.Int("nodes", 4, "nodes")
	pipelined := fs.Bool("p", false, "pipelined LU graph")
	pm := fs.Bool("pm", false, "parallel sub-block multiplication")
	window := fs.Int("window", 0, "flow-control window")
	bands := fs.Int("bands", 4, "stencil bands")
	iters := fs.Int("iters", 2, "stencil iterations")
	summary := fs.Bool("summary", false, "plain-text summary instead of dot")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "dpsdot: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "dpsdot: %v\n", err)
		return 1
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments: %v", fs.Args())
	}

	var out interface {
		Dot() string
		Summary() string
	}
	switch *app {
	case "lu":
		a, err := lu.Build(lu.Config{
			N: *n, R: *r, Nodes: *nodes,
			Pipelined: *pipelined, ParallelMult: *pm, Window: *window,
		})
		if err != nil {
			return fail(err)
		}
		out = a.Graph
	case "stencil":
		a, err := stencil.Build(stencil.Config{
			N: *n, Bands: *bands, Nodes: *nodes, Iterations: *iters,
		})
		if err != nil {
			return fail(err)
		}
		out = a.Graph
	default:
		return usage("unknown app %q", *app)
	}
	if *summary {
		fmt.Fprint(stdout, out.Summary())
		return 0
	}
	fmt.Fprint(stdout, out.Dot())
	return 0
}
