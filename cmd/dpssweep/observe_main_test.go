package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dpsim/internal/obs"
	"dpsim/internal/scenario"
	"dpsim/internal/sweep"
)

// labelRE parses a recorder label: policy, the table's cell column and
// the replication.
var labelRE = regexp.MustCompile(`^(.+) ([0-9a-f]{12}) rep (\d+)$`)

// tableCells returns the cell column of a stdout table, in row order.
func tableCells(t *testing.T, stdout string) []string {
	t.Helper()
	at := strings.Index(stdout, "\ncell ")
	if at < 0 {
		t.Fatalf("no table on stdout:\n%s", stdout)
	}
	var cells []string
	for _, line := range strings.Split(strings.TrimSpace(stdout[at:]), "\n")[1:] {
		cells = append(cells, strings.Fields(line)[0])
	}
	return cells
}

func loadScenario(t *testing.T, name string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Load(scenarioFile(name))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeObservabilityExports drives the full CLI path against the
// shipped downey_spot scenario with every observability export enabled,
// then checks the artifacts: the trace must be valid trace-event JSON
// with one process per run, labelled by the cell the table shows, plus
// job tracks and counter series; the time series must have rows; and
// every summary must account for the workload's arrivals.
func TestSmokeObservabilityExports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	tsPath := filepath.Join(dir, "ts.csv")
	sumPath := filepath.Join(dir, "summary.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-scenario", scenarioFile("downey_spot.json"),
		"-trace-out", tracePath, "-timeseries-out", tsPath, "-summary-out", sumPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	cells := tableCells(t, stdout.String())
	if len(cells) != 6 {
		t.Fatalf("table has %d rows, want downey_spot's 6 cells", len(cells))
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(mustRead(t, tracePath), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var procs []string
	counters := map[string]bool{}
	jobTracks := 0
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "M":
			args, _ := ev["args"].(map[string]any)
			name, _ := args["name"].(string)
			if ev["name"] == "process_name" {
				procs = append(procs, name)
			}
			if ev["name"] == "thread_name" && strings.HasPrefix(name, "job ") {
				jobTracks++
			}
		case "C":
			counters[ev["name"].(string)] = true
		}
	}
	if len(procs) != len(cells) {
		t.Fatalf("trace has %d processes, want one per run (%d): %v", len(procs), len(cells), procs)
	}
	for i, name := range procs {
		m := labelRE.FindStringSubmatch(name)
		if m == nil || m[2] != cells[i] || m[3] != "0" {
			t.Errorf("process %d is %q, want a label of cell %s rep 0", i, name, cells[i])
		}
	}
	if !strings.HasPrefix(procs[0], "equipartition ") {
		t.Errorf("first process %q does not name its scheduler", procs[0])
	}
	if jobTracks == 0 {
		t.Error("trace has no job tracks")
	}
	for _, want := range []string{"jobs", "nodes", "capacity"} {
		if !counters[want] {
			t.Errorf("trace missing counter %q (have %v)", want, counters)
		}
	}

	rows, err := csv.NewReader(bytes.NewReader(mustRead(t, tsPath))).ReadAll()
	if err != nil || len(rows) < 2 {
		t.Fatalf("time series: %d rows, err %v", len(rows), err)
	}
	if got, want := strings.Join(rows[0], ","), strings.Join(append(sweep.TimeSeriesPrefixColumns(), obs.SampleColumns()...), ","); got != want {
		t.Errorf("time-series header = %q, want %q", got, want)
	}

	var summaries []obs.Summary
	if err := json.Unmarshal(mustRead(t, sumPath), &summaries); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if len(summaries) != len(procs) {
		t.Fatalf("summary has %d entries, want %d", len(summaries), len(procs))
	}
	jobs := loadScenario(t, "downey_spot.json").Jobs
	for i, s := range summaries {
		if s.Label != procs[i] {
			t.Errorf("summary %d is labelled %q, its trace process %q", i, s.Label, procs[i])
		}
		if s.Arrived != jobs || s.Samples == 0 {
			t.Errorf("summary %q: %d arrivals, %d samples; want all %d jobs and some samples", s.Label, s.Arrived, s.Samples, jobs)
		}
	}
}

// TestObservabilityDoesNotChangeJSONResults: the -csv and -json exports
// must be byte-identical with and without the observability exports —
// recording is an observer, not a participant.
func TestObservabilityDoesNotChangeJSONResults(t *testing.T) {
	for _, name := range []string{"downey_spot.json", "federated_volatile.json"} {
		dir := t.TempDir()
		run := func(tag string, extra ...string) (csvOut, jsonOut []byte) {
			csvPath, jsonPath := filepath.Join(dir, tag+".csv"), filepath.Join(dir, tag+".json")
			args := append([]string{"-scenario", scenarioFile(name), "-q", "-replications", "2",
				"-csv", csvPath, "-json", jsonPath}, extra...)
			var stdout, stderr bytes.Buffer
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
			}
			return mustRead(t, csvPath), mustRead(t, jsonPath)
		}
		bareCSV, bareJSON := run("bare")
		obsCSV, obsJSON := run("observed",
			"-trace-out", filepath.Join(dir, "t.json"),
			"-timeseries-out", filepath.Join(dir, "ts.csv"),
			"-summary-out", filepath.Join(dir, "s.json"))
		if !bytes.Equal(bareCSV, obsCSV) {
			t.Errorf("%s: the observability exports changed the -csv results", name)
		}
		if !bytes.Equal(bareJSON, obsJSON) {
			t.Errorf("%s: the observability exports changed the -json results", name)
		}
	}
}

// TestFederatedTimeseries: a federated sweep's time series holds one
// series per (replication, member cluster) of every cell, each naming
// its member in the scheduler column, and no series repeats an instant
// — a series shared by all members would (t_s=0 once per member).
func TestFederatedTimeseries(t *testing.T) {
	for _, name := range []string{"federated_basic.json", "federated_volatile.json"} {
		spec := loadScenario(t, name)
		members := map[string]bool{}
		for _, c := range spec.Federation.Clusters {
			members["federated:"+c.Name] = true
		}
		ts := filepath.Join(t.TempDir(), "ts.csv")
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-scenario", scenarioFile(name), "-q", "-replications", "2",
			"-timeseries-out", ts}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		rows, err := csv.NewReader(bytes.NewReader(mustRead(t, ts))).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		col := map[string]int{}
		for i, c := range rows[0] {
			col[c] = i
		}
		lastT := map[string]string{} // series key → its latest t_s
		var order []string
		for _, row := range rows[1:] {
			if !members[row[col["scheduler"]]] {
				t.Fatalf("%s: row names no member cluster: %v", name, row)
			}
			key := strings.Join(row[:col["t_s"]], ",")
			prev, seen := lastT[key]
			if !seen {
				order = append(order, key)
			} else if prev == row[col["t_s"]] {
				t.Fatalf("%s: series %s repeats t_s=%s", name, key, prev)
			}
			lastT[key] = row[col["t_s"]]
		}
		if want := len(sweep.Cells(spec)) * 2 * len(members); len(order) != want {
			t.Errorf("%s: %d series, want %d (cells × 2 replications × %d members)", name, len(order), want, len(members))
		}
	}
}

// TestTelemetryFlagSmoke: -telemetry-addr binds, prints the address to
// stderr, and -log-json turns stderr into a JSON record stream.
func TestTelemetryFlagSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-scenario", scenarioFile("classic.json"), "-q", "-telemetry-addr", "127.0.0.1:0", "-log-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	text := stderr.String()
	if !strings.Contains(text, "telemetry: serving on http://") {
		t.Errorf("stderr missing telemetry address line:\n%s", text)
	}
	sawFinished := false
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // the human-readable telemetry address line
		}
		var rec struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line is not JSON: %q (%v)", line, err)
		}
		sawFinished = sawFinished || rec.Msg == "sweep finished"
	}
	if !sawFinished {
		t.Error("no \"sweep finished\" slog record on stderr")
	}
}
