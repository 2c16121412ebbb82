package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dpsim/internal/experiments"
	"dpsim/internal/metrics"
	"dpsim/internal/scenario"
	"dpsim/internal/sweep"
)

// loadWorkload loads a scenario workload's committed file as the sweep
// would see it, shrunk to at most maxJobs jobs per run so the whole
// suite stays quick.
func loadWorkload(t *testing.T, w *workload, maxJobs int) *prepared {
	t.Helper()
	spec, err := scenario.Load(filepath.Join("workloads", w.file))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Jobs > maxJobs {
		spec.Jobs = maxJobs
	}
	cells := sweep.Cells(spec)
	return &prepared{w: w, dir: t.TempDir(), spec: spec, cells: cells, hashes: sweep.CellHashes(spec, cells)}
}

func scenarioWorkloads() []*workload {
	var out []*workload
	for _, w := range workloads {
		if w.file != "" {
			out = append(out, w)
		}
	}
	return out
}

// Every committed scenario loads, validates and has the size the
// workload table (and so runs_per_s) assumes; no stray file sits beside
// them.
func TestWorkloadFilesLoad(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("workloads", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	byFile := map[string]*workload{}
	for _, w := range scenarioWorkloads() {
		byFile[w.file] = w
	}
	if len(files) != len(byFile) {
		t.Errorf("%d files under workloads/, %d scenario workloads declared", len(files), len(byFile))
	}
	for _, f := range files {
		w := byFile[filepath.Base(f)]
		if w == nil {
			t.Errorf("%s belongs to no workload", f)
			continue
		}
		spec, err := scenario.Load(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		if got := len(sweep.Cells(spec)) * w.reps; got != w.runs || spec.Jobs != w.jobsPerRun || spec.Name != w.name {
			t.Errorf("%s: %q has %d runs of %d jobs, table says %q %d of %d", f, spec.Name, got, spec.Jobs, w.name, w.runs, w.jobsPerRun)
		}
	}
}

// The mirror driver returns exactly what Spec.RunCell returns, plain
// and federated, on replications 0 and 1 of every cell.
func TestMirrorMatchesRunCell(t *testing.T) {
	for _, w := range scenarioWorkloads() {
		p := loadWorkload(t, w, 200)
		m := &mirror{tr: &tracer{}}
		for rep := 0; rep < 2; rep++ {
			for ci, c := range p.cells {
				seed := runSeed(p.hashes[ci], rep)
				got, err := m.runCell(p.spec, c, seed, runID(p.hashes[ci], rep))
				if err != nil {
					t.Fatalf("%s cell %d: %v", w.name, ci, err)
				}
				want, err := p.spec.RunCell(cellParams(c, seed))
				if err != nil {
					t.Fatalf("%s cell %d: %v", w.name, ci, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cell %d rep %d: mirror driver diverged from Spec.RunCell", w.name, ci, rep)
				}
			}
		}
		if tot := m.tr.totals(); tot["scenario.run"].calls != int64(2*len(p.cells)) || tot["sched.allocate"].calls == 0 {
			t.Errorf("%s: spans missing: %+v", w.name, tot)
		}
	}
}

// runSeed restates an unexported sweep function; the mirror's runs must
// be the runs sweep.Run folds. Makespans are summed in replication order
// on both sides, so the means agree bit for bit.
func TestMirrorMatchesSweep(t *testing.T) {
	w, _ := findWorkload("sweep-open")
	p := loadWorkload(t, w, 40)
	const reps = 2
	stats, err := sweep.Run(p.spec, sweep.Options{Replications: reps, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := &mirror{tr: &tracer{}}
	for ci, c := range p.cells {
		var makespan float64
		jobs := 0
		for rep := 0; rep < reps; rep++ {
			run, err := m.runCell(p.spec, c, runSeed(p.hashes[ci], rep), "")
			if err != nil {
				t.Fatal(err)
			}
			makespan += run.Result.Makespan
			jobs += len(run.Result.PerJob)
		}
		if got := makespan / reps; got != stats[ci].MeanMakespan || jobs != stats[ci].Jobs {
			t.Fatalf("cell %d: mirror mean makespan %v jobs %d, sweep.Run %v %d", ci, got, jobs, stats[ci].MeanMakespan, stats[ci].Jobs)
		}
	}
}

// The paper-side mirror reproduces experiments.MeasureAndPredict.
func TestPaperMirrorMatchesExperiments(t *testing.T) {
	cfgs := paperLUConfigs()
	if len(cfgs) != paperConfigs {
		t.Fatalf("%d configs, want %d", len(cfgs), paperConfigs)
	}
	var pt paperTotals
	cfg := cfgs[len(cfgs)-1] // r=216 P+FC: the cheapest graph with every feature on
	measured, predicted, err := pt.measureAndPredict(&tracer{}, "test", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.MeasureAndPredict("test", cfg, paperSetup)
	if err != nil {
		t.Fatal(err)
	}
	if measured != want.Measured[0] || predicted != want.Predicted {
		t.Errorf("mirror measured %v predicted %v, experiments %v %v", measured, predicted, want.Measured[0], want.Predicted)
	}
}

// The conservation checker accepts a real export and rejects doctored
// ones.
func TestCheckSweepCSV(t *testing.T) {
	w, _ := findWorkload("fed-fleet")
	p := loadWorkload(t, w, 60)
	const reps = 2
	stats, err := sweep.Run(p.spec, sweep.Options{Replications: reps})
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := sweep.WriteCSV(&csvBuf, p.spec.Name, stats); err != nil {
		t.Fatal(err)
	}
	if err := sweep.WriteJSON(&jsonBuf, p.spec.Name, stats); err != nil {
		t.Fatal(err)
	}
	good := csvBuf.String()
	simJobs, bad, err := checkSweepCSV([]byte(good), len(p.cells), reps, p.spec.Jobs)
	if err != nil || bad != 0 || simJobs != len(p.cells)*reps*p.spec.Jobs {
		t.Fatalf("real export: simJobs %d bad %d err %v", simJobs, bad, err)
	}
	if err := checkSweepJSON(jsonBuf.Bytes(), len(p.cells), reps); err != nil {
		t.Fatal(err)
	}
	rejected := false
	for _, st := range stats {
		rejected = rejected || st.MeanRejected > 0
	}
	if !rejected {
		t.Error("no cell rejected a job: the rejected term of the conservation law went unexercised")
	}

	lines := strings.Split(strings.TrimSpace(good), "\n")
	fields := strings.Split(lines[1], ",")
	col := map[string]int{}
	for i, name := range strings.Split(lines[0], ",") {
		col[name] = i
	}
	doctor := func(name, value string) string {
		f := append([]string(nil), fields...)
		f[col[name]] = value
		out := append([]string(nil), lines...)
		out[1] = strings.Join(f, ",")
		return strings.Join(out, "\n") + "\n"
	}
	for _, tc := range []struct{ name, col, value string }{
		{"a lost job", "jobs", "1"},
		{"wrong replication count", "replications", "3"},
		{"NaN statistic", "mean_response_s", "NaN"},
		{"infinite statistic", "p99_response_s", "+Inf"},
	} {
		if _, bad, err := checkSweepCSV([]byte(doctor(tc.col, tc.value)), len(p.cells), reps, p.spec.Jobs); err != nil || bad != 1 {
			t.Errorf("%s: bad rows %d err %v, want exactly the doctored row", tc.name, bad, err)
		}
	}
	short := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if _, _, err := checkSweepCSV([]byte(short), len(p.cells), reps, p.spec.Jobs); err == nil {
		t.Error("a CSV with a row missing passed")
	}
	if err := checkSweepJSON(jsonBuf.Bytes(), len(p.cells)+1, reps); err == nil {
		t.Error("a JSON export with the wrong row count passed")
	}
}

func TestCheckPaperRows(t *testing.T) {
	var b strings.Builder
	b.WriteString("== Fig. 10 ==\nr    strategy  measured[s]  predicted[s]  improv(meas)  improv(pred)  pred.err\n")
	for i := 0; i < paperConfigs-1; i++ {
		b.WriteString("54   Basic     17.6         17.6          0.64          0.63          0.4%    \n")
	}
	b.WriteString("note: reference\n\n(completed in 2.9s)\n")
	rows, stable := parsePaperOutput([]byte(b.String()))
	if err := checkPaperRows(rows); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(stable), "completed in") {
		t.Error("the wall-time line is part of the hashed output")
	}
	if err := checkPaperRows(rows[1:]); err == nil {
		t.Error("14 rows passed")
	}
	rows[3].predicted = 0
	if err := checkPaperRows(rows); err == nil {
		t.Error("a zero prediction passed")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json declares exactly the workloads and metrics the harness
// has, within the driver's limits on names, units and bounds.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDecl) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) || len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d/%d/%d end-to-end/per-layer/workloads, the harness %d/%d/%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(bj.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	hasSetup := false
	for i, d := range endToEnd {
		check(d)
		if got := bj.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		check(d)
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.name || got.Why != w.why || !nameRE.MatchString(w.name) ||
			len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workloads[%d]: BENCHMARK.json %+v, harness %q %q", i, got, w.name, w.why)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v", bj.RunSeconds, bj.Paths)
	}
}

// The traced passes emit only declared metrics, and between them every
// declared metric: federation.* only from the federated workload,
// sweep.checkpoint_* only from the checkpointing one, core.* only from
// the paper side, cmd.* and trace.timer_pair_ns from the harness.
func TestEmittedMetricsAreTheDeclaredSet(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	emitted := map[string]string{"trace.timer_pair_ns": "harness"}
	note := func(from string, got map[string]float64) {
		for k := range got {
			if !declared[k] {
				t.Errorf("%s emits undeclared metric %q", from, k)
			}
			if _, ok := emitted[k]; !ok {
				emitted[k] = from
			}
		}
	}
	shrunk := func(name string, reps int) map[string]float64 {
		w, _ := findWorkload(name)
		p := loadWorkload(t, w, 60)
		small := *w
		small.reps, small.runs = reps, reps*len(p.cells)
		p.w = &small
		got, err := (&bench{}).traceScenario(p, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	vol, fed := shrunk("sweep-volatile", 2), shrunk("fed-fleet", 1)
	note("sweep-volatile", vol)
	note("fed-fleet", fed)
	note("cmd", cmdMetrics(&e2eResult{}))
	tr := &tracer{}
	var pt paperTotals
	if _, _, err := pt.measureAndPredict(tr, "test", paperLUConfigs()[paperConfigs-1]); err != nil {
		t.Fatal(err)
	}
	paper := paperMetrics(tr, &pt, []metrics.ErrorSample{{Measured: 10, Predicted: 11}}, 8)
	note("paper-lu", paper)

	var missing []string
	for name := range declared {
		if _, ok := emitted[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("declared but never emitted: %v", missing)
	}
	for name, from := range emitted {
		layer, _, _ := strings.Cut(name, ".")
		switch {
		case layer == "federation" && from != "fed-fleet",
			strings.HasPrefix(name, "sweep.checkpoint_") && from != "sweep-volatile",
			(layer == "core" || layer == "lu" || layer == "experiments") && from != "paper-lu":
			t.Errorf("%s came from %s", name, from)
		}
	}
	if vol["sweep.checkpoint_bytes"] <= 0 || fed["federation.peek_ns_per_call"] <= 0 || paper["core.steps"] <= 0 {
		t.Errorf("layer metrics not measured: checkpoint_bytes %v peek %v steps %v",
			vol["sweep.checkpoint_bytes"], fed["federation.peek_ns_per_call"], paper["core.steps"])
	}
}

func TestSummarizeAndCompare(t *testing.T) {
	s := summarize([]float64{5, 1, 3, 2, 4})
	if s.Value != 2 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Errorf("summarize: %+v", s)
	}
	if got := worsening("lower", 2, 2.5); got != 0.25 {
		t.Errorf("lower-is-better worsening %v", got)
	}
	if got := worsening("higher", 4, 3); got != 0.25 {
		t.Errorf("higher-is-better worsening %v", got)
	}

	mk := func(wall float64, events float64, sha string) report {
		return report{Workloads: []workloadReport{{
			Name: "w", OutputSHA256: sha,
			EndToEnd: metricValues(endToEnd[:1], map[string]float64{"wall_s": wall}, nil),
			PerLayer: metricValues([]metricDecl{{Name: "cluster.events", Unit: "count", Exact: true}},
				map[string]float64{"cluster.events": events}, nil),
		}}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1.0, 100, "x"))
	var out bytes.Buffer
	if err := compareFiles(base, write("ok.json", mk(1.2, 100, "x")), &out); err != nil {
		t.Errorf("a 20%% slowdown inside a 25%% bound failed: %v\n%s", err, out.String())
	}
	for name, r := range map[string]report{
		"slow.json":  mk(1.3, 100, "x"),
		"count.json": mk(1.0, 101, "x"),
		"sha.json":   mk(1.0, 100, "y"),
	} {
		if err := compareFiles(base, write(name, r), &out); err == nil {
			t.Errorf("%s passed the comparison", name)
		}
	}
}
