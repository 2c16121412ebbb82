// Command bench is the repository benchmark: it builds the real CLIs,
// runs named workloads as child processes for the end-to-end metrics
// (tracing off), and makes one in-process traced pass per workload for
// the per-layer metrics. See README.md for the metric and workload
// tables and BENCHMARK.json for the contract the driver runs it under.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one workload, result as the last stdout line
//	bench [-seed N] [-seconds S] [-out FILE]                 every workload, both passes, results file
//	bench -compare A.json B.json                             A/A (or parent/change) comparison of two results files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"dpsim/internal/metrics"
	"dpsim/internal/scenario"
	"dpsim/internal/sweep"
)

// bench holds what every workload shares.
type bench struct {
	root   string // the checkout: go.mod, cmd/, bench/
	binDir string // built CLIs
	tmpDir string // seeded scenario copies and per-repetition dirs
	seed   uint64
	buildS float64
}

// prepared is a workload with its seeded input on disk and its grid
// planned — the state set-up time is measured up to.
type prepared struct {
	w            *workload
	dir          string
	scenarioPath string
	spec         *scenario.Spec
	cells        []sweep.Cell
	hashes       []sweep.CellHash
	// setupS, loadS and planS are the set-up samples: setupPasses before
	// each child repetition, so they see the machine states the children
	// see rather than one instant's.
	setupS, loadS, planS []float64
	// childSHA is the output hash of the untraced children, which the
	// in-process sweep must reproduce.
	childSHA string
}

const (
	// setupPasses in-process set-ups are timed before every child
	// repetition; minReps repetitions always run, however short the
	// budget.
	setupPasses = 10
	minReps     = 3
)

func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "workloads")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dpssweep")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root (or from bench/): no bench/workloads and cmd/dpssweep here")
}

// newBench builds the CLIs the workloads run. With a warm build cache
// this is a relink check; build_s is reported, not gated.
func newBench(seed uint64) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	b := &bench{root: root, binDir: filepath.Join(build, "bin"), seed: seed}
	if err := os.MkdirAll(b.binDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if b.tmpDir, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", b.binDir+string(os.PathSeparator), "./cmd/dpssweep", "./cmd/paperrepro")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %w\n%s", err, out)
	}
	b.buildS = time.Since(t0).Seconds()
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.tmpDir) }

// outPath resolves an output flag: the default lives under bench/out of
// the checkout, wherever the harness was started from.
func (b *bench) outPath(flagValue, name string) string {
	if flagValue != "" {
		return flagValue
	}
	return filepath.Join(b.root, "bench", "out", name)
}

// prepare writes the workload's seeded input and plans its grid.
func (b *bench) prepare(w *workload) (*prepared, error) {
	p := &prepared{w: w, dir: filepath.Join(b.tmpDir, w.name)}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	if w.file != "" {
		path, err := w.writeScenario(b.root, p.dir, b.seed)
		if err != nil {
			return nil, err
		}
		p.scenarioPath = path
	}
	if err := p.setupPass(); err != nil {
		return nil, err
	}
	if w.file != "" {
		if got := len(p.cells) * w.reps; got != w.runs || p.spec.Jobs != w.jobsPerRun {
			return nil, fmt.Errorf("%s: scenario has %d runs of %d jobs, the workload table says %d of %d",
				w.name, got, p.spec.Jobs, w.runs, w.jobsPerRun)
		}
	}
	return p, nil
}

// runChildren runs the untraced repetitions in repetition-major order —
// every workload once, then every workload again — so machine drift
// spreads evenly over the workloads, until the next round would overrun
// the budget of `seconds` per workload.
func (b *bench) runChildren(ps []*prepared, seconds float64, log io.Writer) ([]*e2eResult, error) {
	results := make([]*e2eResult, len(ps))
	for i := range results {
		results[i] = &e2eResult{}
	}
	budget := time.Duration(seconds * float64(len(ps)) * float64(time.Second))
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		for i, p := range ps {
			for k := 0; k < setupPasses; k++ {
				if err := p.setupPass(); err != nil {
					return nil, err
				}
			}
			for k := 0; k < calPasses; k++ {
				results[i].cal = append(results[i].cal, calibrate())
			}
			rep := b.runRep(p)
			if rep.fault != "" {
				fmt.Fprintf(log, "%s repetition %d: %s\n", p.w.name, round, rep.fault)
			}
			results[i].reps = append(results[i].reps, rep)
		}
		if round+1 >= minReps && time.Since(start)+time.Since(roundStart) > budget {
			break
		}
	}
	for i, p := range ps {
		results[i].finish(p.w, log)
		p.childSHA = results[i].sha
	}
	return results, nil
}

// cmdMetrics are the per-layer figures read off the untraced children.
func cmdMetrics(r *e2eResult) map[string]float64 {
	var rss []float64
	simJobs := 0
	for _, rep := range r.reps {
		if rep.failedOps == 0 {
			rss = append(rss, rep.rssMB)
			simJobs = rep.simJobs
		}
	}
	return map[string]float64{
		"cmd.wall_raw_s":          r.wallRaw.Value,
		"cmd.cpu_raw_s":           r.cpuRaw.Value,
		"cmd.machine_speed":       r.speed,
		"cmd.peak_rss_mb":         metrics.Percentile(rss, 0.5),
		"cmd.parallel_efficiency": ratio(r.cpu.Value, childWorkers*r.wall.Value),
		"cmd.sim_jobs_per_s":      ratio(float64(simJobs), r.wall.Value),
	}
}

// tracePass runs one workload's traced pass and returns every declared
// per-layer metric (0 for layers the workload never enters).
func (b *bench) tracePass(p *prepared, r *e2eResult, tr *tracer) (map[string]float64, error) {
	var got map[string]float64
	var err error
	tr.mark = len(tr.spans)
	if p.w.file == "" {
		got, err = tracePaper(tr)
	} else {
		got, err = b.traceScenario(p, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", p.w.name, err)
	}
	for k, v := range cmdMetrics(r) {
		got[k] = v
	}
	got["trace.timer_pair_ns"] = timerPairNS()
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = got[d.Name]
		delete(got, d.Name)
	}
	for k := range got {
		return nil, fmt.Errorf("%s: metric %q is produced but not declared", p.w.name, k)
	}
	return out, nil
}

func printMetrics(w io.Writer, workload string, ms []metricValue) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-15s %-36s %14.6g %-10s (%s is better", workload, m.Name, m.Value, m.Unit, m.Better)
		if m.Bound > 0 {
			fmt.Fprintf(w, ", bound %.0f%%", m.Bound*100)
		}
		if m.N > 0 {
			fmt.Fprintf(w, "; median %.6g min %.6g max %.6g n %d", m.Median, m.Min, m.Max, m.N)
		}
		fmt.Fprintln(w, ")")
	}
}

// measure runs the workloads: the untraced children in repetition-major
// order for `seconds` each, then — when tr is non-nil — one traced pass
// per workload. It prints every metric it measured by name and reports
// whether every check passed.
func (b *bench) measure(ws []*workload, seconds float64, tr *tracer, stdout, stderr io.Writer) ([]workloadReport, bool, error) {
	ps := make([]*prepared, len(ws))
	for i, w := range ws {
		var err error
		if ps[i], err = b.prepare(w); err != nil {
			return nil, false, err
		}
	}
	results, err := b.runChildren(ps, seconds, stderr)
	if err != nil {
		return nil, false, err
	}
	reports := make([]workloadReport, len(ps))
	ok := true
	for i, p := range ps {
		r := results[i]
		values, detail := r.metrics(p)
		rep := workloadReport{
			Name: p.w.name, Why: p.w.why, Ops: r.ops, FailedOps: r.failedOps, OutputSHA256: r.sha,
			EndToEnd: metricValues(endToEnd, values, detail),
		}
		ok = ok && r.failedOps == 0
		if tr != nil {
			layers, err := b.tracePass(p, r, tr)
			if err != nil {
				fmt.Fprintln(stderr, err)
				ok = false
			}
			rep.PerLayer = metricValues(perLayer, layers, nil)
		}
		printMetrics(stdout, rep.Name, rep.EndToEnd)
		printMetrics(stdout, rep.Name, rep.PerLayer)
		fmt.Fprintf(stdout, "%s: ops %d failed_ops %d output_sha256 %s\n", rep.Name, rep.Ops, rep.FailedOps, rep.OutputSHA256)
		fmt.Fprintf(stdout, "%s: machine speed %.3f (reference kernel %.4f s, nominal %.3f s): wall_s %.4f s and cpu_s %.4f s as measured\n",
			rep.Name, r.speed, summarize(r.cal).Value, calNominalS, r.wallRaw.Value, r.cpuRaw.Value)
		reports[i] = rep
	}
	fmt.Fprintf(stdout, "build_s %.3f\n", b.buildS)
	return reports, ok, nil
}

// runOne is the driver contract: one workload, one pass, the result as
// the last line of standard output.
func runOne(name string, seed uint64, seconds float64, trace bool, traceOut string, stdout, stderr io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	b, err := newBench(seed)
	if err != nil {
		return err
	}
	defer b.cleanup()
	var tr *tracer
	if trace {
		// The traced pass needs the children only for cmd.* and the
		// export hash; most of the run belongs to the pass itself.
		tr, seconds = &tracer{}, seconds/4
	}
	reports, ok, err := b.measure([]*workload{w}, seconds, tr, stdout, stderr)
	if err != nil {
		return err
	}
	rep, reported := reports[0], reports[0].EndToEnd
	if trace {
		reported = rep.PerLayer
		if err := tr.write(b.outPath(traceOut, "spans.json")); err != nil {
			return err
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: ok, Attempted: rep.Ops, Failed: rep.FailedOps, Metrics: map[string]metric{}}
	for _, m := range reported {
		result.Metrics[m.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return fmt.Errorf("%s: checks failed (%d of %d ops wrong)", w.name, rep.FailedOps, rep.Ops)
	}
	return nil
}

// runAll runs every workload, both passes, and writes the results and
// span files -compare reads.
func runAll(seed uint64, seconds float64, outPath, traceOut string, stdout, stderr io.Writer) error {
	b, err := newBench(seed)
	if err != nil {
		return err
	}
	defer b.cleanup()
	tr := &tracer{}
	reports, ok, err := b.measure(workloads, seconds, tr, stdout, stderr)
	if err != nil {
		return err
	}
	rep := report{Env: fingerprint(b.root, seed), BuildS: b.buildS, Workloads: reports}
	fmt.Fprintf(stdout, "env %+v\n", rep.Env)
	outPath, traceOut = b.outPath(outPath, "results.json"), b.outPath(traceOut, "spans.json")
	if err := tr.write(traceOut); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results: %s  spans: %s\n", outPath, traceOut)
	if !ok {
		return fmt.Errorf("checks failed")
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print its result as the last line (default: all workloads, both passes)")
	seed := fs.Uint64("seed", 1, "workload seed: written into the scenario copies the CLIs read")
	seconds := fs.Float64("seconds", 20, "child-process measuring time per workload")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced pass")
	out := fs.String("out", "", "results file of an all-workloads run (default bench/out/results.json in the checkout)")
	traceOut := fs.String("trace-out", "", "span file of the traced pass (default bench/out/spans.json in the checkout)")
	compare := fs.Bool("compare", false, "compare two results files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two results files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *name != "" {
		return runOne(*name, *seed, *seconds, *trace == 1, *traceOut, stdout, stderr)
	}
	return runAll(*seed, *seconds, *out, *traceOut, stdout, stderr)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
