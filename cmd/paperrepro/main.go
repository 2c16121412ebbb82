// Command paperrepro regenerates the tables and figures of Schaeli,
// Gerlach, Hersch, "A simulator for parallel applications with dynamically
// varying compute node allocation" (IPPS 2006).
//
// Usage:
//
//	paperrepro [-exp all|table1|fig8|fig9|fig10|fig11|fig12|fig13|ablations|windows]
//	           [-quick] [-seeds n]
//
// -exp all runs Table 1, Figs. 8–13 and the model ablations; windows, the
// flow-control window sweep, runs only when named. -exp fig13 alone runs
// the cheaper figures whose error samples it summarizes (Figs. 9, 11
// and 12).
//
// Full scale (default) uses the paper's 2592×2592 matrix; -quick halves
// the scale (same block counts and graph shapes) and is what the test
// suite exercises.
//
// The independent configurations of a figure run on GOMAXPROCS workers;
// the output does not depend on how many.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"dpsim/internal/experiments"
	"dpsim/internal/metrics"
)

// experiment is one -exp name.
type experiment struct {
	name string
	// run returns the experiment's table and, for a figure, its
	// prediction-error samples. Nil for fig13, which summarizes the
	// samples of the figures run before it.
	run func(experiments.Setup) (*experiments.Table, []metrics.ErrorSample, error)
	// also lists the other -exp names that run this experiment.
	also []string
}

// tableOnly adapts an experiment without error samples.
func tableOnly(f func(experiments.Setup) (*experiments.Table, error)) func(experiments.Setup) (*experiments.Table, []metrics.ErrorSample, error) {
	return func(s experiments.Setup) (*experiments.Table, []metrics.ErrorSample, error) {
		t, err := f(s)
		return t, nil, err
	}
}

// experimentList is every experiment in output order.
var experimentList = []experiment{
	{"table1", tableOnly(experiments.Table1), []string{"all"}},
	{"fig8", experiments.Fig8, []string{"all"}},
	{"fig9", experiments.Fig9, []string{"all", "fig13"}},
	{"fig10", experiments.Fig10, []string{"all"}},
	{"fig11", experiments.Fig11, []string{"all", "fig13"}},
	{"fig12", experiments.Fig12, []string{"all", "fig13"}},
	{"fig13", nil, []string{"all"}},
	{"ablations", tableOnly(experiments.Ablations), []string{"all"}},
	{"windows", tableOnly(experiments.WindowSweep), nil},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its environment made explicit, so the CLI smoke
// test can drive the binary's full path in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	names := []string{"all"}
	for _, e := range experimentList {
		names = append(names, e.name)
	}
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
	quick := fs.Bool("quick", false, "half-scale problems (fast)")
	seeds := fs.Int("seeds", 3, "measured repetitions per configuration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "paperrepro: "+format+"\n", args...)
		fs.Usage()
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments: %v", fs.Args())
	case *seeds < 1:
		return usage("-seeds %d: need at least 1 measured repetition", *seeds)
	case !slices.Contains(names, *exp):
		return usage("-exp %q: unknown experiment (valid: %s)", *exp, strings.Join(names, ", "))
	}

	if err := run(stdout, *exp, experiments.Setup{Quick: *quick, Seeds: *seeds}); err != nil {
		fmt.Fprintf(stderr, "paperrepro: %v\n", err)
		return 1
	}
	return 0
}

// run prints, in list order, every experiment that exp names.
func run(w io.Writer, exp string, s experiments.Setup) error {
	started := time.Now()
	var samples []metrics.ErrorSample
	for _, e := range experimentList {
		if e.name != exp && !slices.Contains(e.also, exp) {
			continue
		}
		if e.run == nil {
			t, hist := experiments.Fig13(samples)
			fmt.Fprintln(w, t.Render())
			fmt.Fprintln(w, "Prediction error histogram (2% bins):")
			fmt.Fprintln(w, hist)
			continue
		}
		t, smp, err := e.run(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t.Render())
		samples = append(samples, smp...)
	}
	fmt.Fprintf(w, "(completed in %v)\n", time.Since(started).Round(time.Millisecond))
	return nil
}
