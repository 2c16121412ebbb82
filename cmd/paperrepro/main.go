// Command paperrepro regenerates the tables and figures of Schaeli,
// Gerlach, Hersch, "A simulator for parallel applications with dynamically
// varying compute node allocation" (IPPS 2006).
//
// Usage:
//
//	paperrepro [-exp all|table1|fig8|fig9|fig10|fig11|fig12|fig13|ablations]
//	           [-quick] [-seeds n]
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
	"os"
	"time"

	"dpsim/internal/experiments"
	"dpsim/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig8, fig9, fig10, fig11, fig12, fig13, ablations")
	quick := flag.Bool("quick", false, "half-scale problems (fast)")
	seeds := flag.Int("seeds", 3, "measured repetitions per configuration")
	flag.Parse()

	s := experiments.Setup{Quick: *quick, Seeds: *seeds}
	if err := run(*exp, s); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}

func run(exp string, s experiments.Setup) error {
	var samples []metrics.ErrorSample
	show := func(t *experiments.Table, smp []metrics.ErrorSample, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.Render())
		samples = append(samples, smp...)
		return nil
	}
	started := time.Now()
	switch exp {
	case "table1":
		t, err := experiments.Table1(s)
		if err != nil {
			return err
		}
		fmt.Println(t.Render())
	case "fig8":
		if err := show(expand3(experiments.Fig8(s))); err != nil {
			return err
		}
	case "fig9":
		if err := show(expand3(experiments.Fig9(s))); err != nil {
			return err
		}
	case "fig10":
		if err := show(expand3(experiments.Fig10(s))); err != nil {
			return err
		}
	case "fig11":
		if err := show(expand3(experiments.Fig11(s))); err != nil {
			return err
		}
	case "fig12":
		if err := show(expand3(experiments.Fig12(s))); err != nil {
			return err
		}
	case "fig13":
		// Fig. 13 aggregates the error samples of the other experiments;
		// run the cheaper subset when invoked alone.
		for _, f := range []func(experiments.Setup) (*experiments.Table, []metrics.ErrorSample, error){
			experiments.Fig9, experiments.Fig11, experiments.Fig12,
		} {
			if err := show(expand3(f(s))); err != nil {
				return err
			}
		}
		printFig13(samples)
	case "windows":
		t, err := experiments.WindowSweep(s)
		if err != nil {
			return err
		}
		fmt.Println(t.Render())
	case "ablations":
		t, err := experiments.Ablations(s)
		if err != nil {
			return err
		}
		fmt.Println(t.Render())
	case "all":
		t1, err := experiments.Table1(s)
		if err != nil {
			return err
		}
		fmt.Println(t1.Render())
		for _, f := range []func(experiments.Setup) (*experiments.Table, []metrics.ErrorSample, error){
			experiments.Fig8, experiments.Fig9, experiments.Fig10,
			experiments.Fig11, experiments.Fig12,
		} {
			if err := show(expand3(f(s))); err != nil {
				return err
			}
		}
		printFig13(samples)
		ab, err := experiments.Ablations(s)
		if err != nil {
			return err
		}
		fmt.Println(ab.Render())
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	fmt.Printf("(completed in %v)\n", time.Since(started).Round(time.Millisecond))
	return nil
}

func expand3(t *experiments.Table, s []metrics.ErrorSample, err error) (*experiments.Table, []metrics.ErrorSample, error) {
	return t, s, err
}

func printFig13(samples []metrics.ErrorSample) {
	t, hist := experiments.Fig13(samples)
	fmt.Println(t.Render())
	fmt.Println("Prediction error histogram (2% bins):")
	fmt.Println(hist)
}
