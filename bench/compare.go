package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricValue is one metric of one workload in a results file, with its
// declaration beside it so the file reads on its own. The summary
// fields describe the samples behind an end-to-end time (zero where the
// value is a single measurement).
type metricValue struct {
	metricDecl
	summary
}

type workloadReport struct {
	Name         string        `json:"name"`
	Why          string        `json:"why"`
	Ops          int           `json:"ops"`
	FailedOps    int           `json:"failed_ops"`
	OutputSHA256 string        `json:"output_sha256"`
	EndToEnd     []metricValue `json:"end_to_end"`
	PerLayer     []metricValue `json:"per_layer,omitempty"`
}

// report is the results file of an all-workloads run. Claim is always
// null here: the benchmark measures, it claims no gain.
type report struct {
	Env       environment      `json:"env"`
	BuildS    float64          `json:"build_s"`
	Claim     *string          `json:"claim"`
	Workloads []workloadReport `json:"workloads"`
}

func metricValues(decls []metricDecl, values map[string]float64, detail map[string]summary) []metricValue {
	out := make([]metricValue, len(decls))
	for i, d := range decls {
		s := detail[d.Name]
		s.Value = values[d.Name]
		out[i] = metricValue{metricDecl: d, summary: s}
	}
	return out
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func findMetric(ms []metricValue, name string) (metricValue, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// worsening is how much worse b is than a, as a share of a.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compareFiles prints, per workload × end-to-end metric, both values,
// the relative difference and pass/fail against the bound, and demands
// that exact counts, output hashes and failed_ops = 0 agree. Run on two
// results of one commit it is the A/A check of the benchmark itself.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc || a.Env.GoVersion != b.Env.GoVersion {
		fmt.Fprintf(w, "warning: environments differ (%+v vs %+v): host times do not compare\n", a.Env, b.Env)
	}
	byName := make(map[string]*workloadReport, len(b.Workloads))
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := byName[wa.Name]
		if wb == nil {
			fail("%s: missing from %s", wa.Name, pathB)
			continue
		}
		if wa.FailedOps != 0 || wb.FailedOps != 0 {
			fail("%s: failed_ops %d vs %d", wa.Name, wa.FailedOps, wb.FailedOps)
		}
		if a.Env.Seed == b.Env.Seed && wa.OutputSHA256 != wb.OutputSHA256 {
			fail("%s: output_sha256 differs", wa.Name)
		}
		for _, ma := range wa.EndToEnd {
			mb, ok := findMetric(wb.EndToEnd, ma.Name)
			if !ok {
				fail("%s: %s missing from %s", wa.Name, ma.Name, pathB)
				continue
			}
			worse := worsening(ma.Better, ma.Value, mb.Value)
			verdict := "pass"
			if worse > ma.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(w, "%s %-15s %-12s %12.6g -> %-12.6g %s  %+6.1f%% worse (bound %.0f%%)\n",
				verdict, wa.Name, ma.Name, ma.Value, mb.Value, ma.Unit, 100*worse, 100*ma.Bound)
		}
		if a.Env.Seed != b.Env.Seed {
			continue // simulated statistics are per seed
		}
		for _, ma := range wa.PerLayer {
			if mb, ok := findMetric(wb.PerLayer, ma.Name); ma.Exact && (!ok || ma.Value != mb.Value) {
				fail("%s: exact count %s differs: %v vs %v", wa.Name, ma.Name, ma.Value, mb.Value)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	fmt.Fprintln(w, "all comparisons pass")
	return nil
}
