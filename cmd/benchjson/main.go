// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document suitable for archiving as a CI artifact —
// the repository's performance trajectory. Repeated runs of the same
// benchmark (-count=N) are aggregated into min/mean/max so the artifact
// stays one row per benchmark.
//
// Usage:
//
//	go test -bench=. -benchmem -count=3 ./internal/cluster | benchjson > BENCH.json
//	... | benchjson -baseline BENCH_PR6.json > BENCH.json   # regression gate
//
// Recognized per-line fields are the standard benchmark metrics
// (ns/op, B/op, allocs/op) plus any custom b.ReportMetric units, which
// land in the metrics map verbatim.
//
// With -baseline, the parsed run is additionally diffed against a pinned
// report produced by an earlier benchjson run: for every benchmark
// present in the baseline, the current min allocs/op across runs must
// not exceed the baseline's min. Allocation counts are deterministic
// (unlike ns/op), so any increase is a real steady-state regression and
// the command exits 1 naming the offending benchmarks. A baseline
// benchmark missing from the run fails the gate the same way, so a
// renamed benchmark or a -bench pattern typo cannot pass it unchecked.
// So does a benchmark the run produced but the baseline lacks: a new rung
// is gated from the start, by recording a new baseline that holds it.
//
// -time-tolerance F additionally gates wall time: the current min ns/op
// across runs must not exceed the baseline's min by more than the
// fraction F (0.5 = 50% slower fails). ns/op is machine- and
// load-dependent — unlike the allocs gate this is opt-in, meant for
// dedicated benchmark hosts, and the min across -count runs is compared
// so scheduler noise in individual runs is absorbed. 0 (the default)
// disables the gate.
//
// -trend switches to trajectory mode: instead of reading stdin, the
// positional arguments name committed benchjson reports in history
// order (e.g. BENCH_PR4.json BENCH_PR6.json BENCH_PR7.json) and the
// output is a text table, one row per benchmark × metric, one column
// per report — the repository's performance trajectory at a glance.
// Metrics covered: ns/op and allocs/op; a "-" marks a benchmark absent
// from that report.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// sample is one parsed benchmark line.
type sample struct {
	metrics map[string]float64
}

// Result is one benchmark's aggregated JSON row.
type Result struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// Metrics maps unit → {min, mean, max} over the runs.
	Metrics map[string]Stat `json:"metrics"`
}

// Stat summarizes one metric across repeated runs.
type Stat struct {
	Min  float64 `json:"min"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// Report is the artifact envelope.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     []string `json:"packages,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func realMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "",
		"pinned benchjson report; exit 1 if any baseline benchmark's min allocs/op regresses")
	timeTol := fs.Float64("time-tolerance", 0,
		"with -baseline, also gate min ns/op: exit 1 if it exceeds the baseline's min\n"+
			"by more than this fraction (0.5 = 50% slower fails; 0 disables the gate)")
	trend := fs.Bool("trend", false,
		"trajectory mode: merge the benchjson reports named as arguments (in history\n"+
			"order) into a per-benchmark trend table on stdout; stdin is not read")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *timeTol < 0 {
		fmt.Fprintln(stderr, "benchjson: -time-tolerance must be >= 0")
		return 2
	}
	if *trend {
		if *baseline != "" || fs.NArg() == 0 {
			fmt.Fprintln(stderr, "benchjson: -trend takes report files as arguments and no -baseline")
			return 2
		}
		if err := writeTrend(stdout, fs.Args()); err != nil {
			fmt.Fprintf(stderr, "benchjson: trend: %v\n", err)
			return 1
		}
		return 0
	}
	rep, err := parse(bufio.NewScanner(stdin))
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: baseline: %v\n", err)
			return 1
		}
		regressions, checked := diffAllocs(base, rep)
		for _, r := range regressions {
			fmt.Fprintf(stderr, "benchjson: allocs/op regression: %s\n", r)
		}
		timeRegressions, timeChecked := 0, 0
		if *timeTol > 0 {
			tr, tc := diffTime(base, rep, *timeTol)
			for _, r := range tr {
				fmt.Fprintf(stderr, "benchjson: ns/op regression: %s\n", r)
			}
			timeRegressions, timeChecked = len(tr), tc
		}
		if len(regressions)+timeRegressions > 0 {
			return 1
		}
		fmt.Fprintf(stderr, "benchjson: %d benchmark(s) within allocs/op baseline %s\n",
			checked, *baseline)
		if *timeTol > 0 {
			fmt.Fprintf(stderr, "benchjson: %d benchmark(s) within %g ns/op tolerance\n",
				timeChecked, *timeTol)
		}
	}
	return 0
}

func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// diffAllocs compares min allocs/op per benchmark against the baseline.
// The min across repeated runs absorbs one-time warmup allocations so the
// comparison reflects steady state.
func diffAllocs(base, cur *Report) (regressions []string, checked int) {
	return diff(base, cur, "allocs/op", func(got, want float64) string {
		if got > want {
			return fmt.Sprintf("%g allocs/op > baseline %g", got, want)
		}
		return ""
	})
}

// diffTime compares min ns/op per benchmark against the baseline with a
// fractional tolerance: the min across repeated runs is each side's best
// case, so the comparison is as noise-free as wall time gets.
func diffTime(base, cur *Report, tol float64) (regressions []string, checked int) {
	return diff(base, cur, "ns/op", func(got, want float64) string {
		if limit := want * (1 + tol); got > limit {
			return fmt.Sprintf("%g ns/op > baseline %g +%g%% = %g", got, want, 100*tol, limit)
		}
		return ""
	})
}

// diff gates every baseline benchmark that carries unit: worse describes
// a regression of the run's min against the baseline's min ("" = none).
// A gated benchmark the run did not produce, or produced without unit, is
// a regression too: a renamed benchmark or a -bench pattern typo must not
// pass the gate while gating nothing. So is a benchmark the run produced
// with unit that the baseline does not gate: it would otherwise go
// ungated until someone noticed.
func diff(base, cur *Report, unit string, worse func(got, want float64) string) (regressions []string, checked int) {
	current := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		current[r.Name] = r
	}
	gated := make(map[string]bool, len(base.Results))
	for _, b := range base.Results {
		_, gated[b.Name] = b.Metrics[unit]
	}
	for _, r := range cur.Results {
		if _, ok := r.Metrics[unit]; ok && !gated[r.Name] {
			regressions = append(regressions, fmt.Sprintf("%s: %s in this run but not in the baseline (benchmark absent from baseline)", r.Name, unit))
		}
	}
	for _, b := range base.Results {
		want, ok := b.Metrics[unit]
		if !ok {
			continue
		}
		got, ok := current[b.Name].Metrics[unit]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: no %s in this run (benchmark missing)", b.Name, unit))
			continue
		}
		checked++
		if msg := worse(got.Min, want.Min); msg != "" {
			regressions = append(regressions, b.Name+": "+msg)
		}
	}
	return regressions, checked
}

// trendMetrics are the metrics the trajectory table tracks — the two the
// repository gates on.
var trendMetrics = []string{"ns/op", "allocs/op"}

// writeTrend renders the reports at paths (history order) as one table:
// a row per benchmark × metric, a column per report labelled by its file
// name. Benchmarks appear in first-seen order across the history.
func writeTrend(w io.Writer, paths []string) error {
	reports := make([]*Report, len(paths))
	labels := make([]string, len(paths))
	for i, path := range paths {
		rep, err := loadReport(path)
		if err != nil {
			return err
		}
		reports[i] = rep
		labels[i] = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	var order []string
	byName := make([]map[string]Result, len(reports))
	seen := make(map[string]bool)
	for i, rep := range reports {
		byName[i] = make(map[string]Result, len(rep.Results))
		for _, r := range rep.Results {
			byName[i][r.Name] = r
			if !seen[r.Name] {
				seen[r.Name] = true
				order = append(order, r.Name)
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tmetric")
	for _, l := range labels {
		fmt.Fprintf(tw, "\t%s", l)
	}
	fmt.Fprintln(tw)
	for _, name := range order {
		for _, metric := range trendMetrics {
			cells := make([]string, len(reports))
			any := false
			for i := range reports {
				cells[i] = "-"
				if r, ok := byName[i][name]; ok {
					if st, ok := r.Metrics[metric]; ok {
						cells[i] = strconv.FormatFloat(st.Min, 'g', -1, 64)
						any = true
					}
				}
			}
			if !any {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", name, metric, strings.Join(cells, "\t"))
		}
	}
	return tw.Flush()
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	samples := make(map[string][]sample)
	var order []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = append(rep.Pkg, strings.TrimSpace(strings.TrimPrefix(line, "pkg:")))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		// fields[1] is the iteration count; a failed parse means a
		// benchmark name line without results, not a data row.
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		s := sample{metrics: make(map[string]float64)}
		// The remainder alternates value/unit: "1234 ns/op 56 B/op ...".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			s.metrics[fields[i+1]] = v
		}
		name := fields[0]
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		runs := samples[name]
		res := Result{Name: name, Runs: len(runs), Metrics: make(map[string]Stat)}
		units := make(map[string][]float64)
		for _, s := range runs {
			for unit, v := range s.metrics {
				units[unit] = append(units[unit], v)
			}
		}
		unitNames := make([]string, 0, len(units))
		for u := range units {
			unitNames = append(unitNames, u)
		}
		sort.Strings(unitNames)
		for _, u := range unitNames {
			vs := units[u]
			st := Stat{Min: vs[0], Max: vs[0]}
			var sum float64
			for _, v := range vs {
				if v < st.Min {
					st.Min = v
				}
				if v > st.Max {
					st.Max = v
				}
				sum += v
			}
			st.Mean = sum / float64(len(vs))
			res.Metrics[u] = st
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}
