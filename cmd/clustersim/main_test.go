package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeObservabilityExports drives the full CLI path against the
// shipped downey_spot scenario with every observability export enabled,
// then checks the artifacts: the trace must be valid trace-event JSON
// carrying the scheduler process tracks, the time series must have rows,
// and the summary must account for the workload.
func TestSmokeObservabilityExports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	tsPath := filepath.Join(dir, "ts.csv")
	sumPath := filepath.Join(dir, "summary.json")
	scenarioPath := filepath.Join("..", "..", "examples", "scenarios", "downey_spot.json")

	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-scenario", scenarioPath,
		"-trace-out", tracePath,
		"-timeseries-out", tsPath,
		"-summary-out", sumPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "equipartition") {
		t.Errorf("report missing scheduler table:\n%s", stdout.String())
	}

	// Trace: valid JSON, one named process per scheduler, job tracks,
	// counter series.
	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	procs := map[string]bool{}
	counters := map[string]bool{}
	jobTracks := 0
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "M":
			args, _ := ev["args"].(map[string]any)
			name, _ := args["name"].(string)
			if ev["name"] == "process_name" {
				procs[name] = true
			}
			if ev["name"] == "thread_name" && strings.HasPrefix(name, "job ") {
				jobTracks++
			}
		case "C":
			counters[ev["name"].(string)] = true
		}
	}
	for _, want := range []string{"equipartition", "malleable-hysteresis(epoch_s=30,min_delta=2)"} {
		if !procs[want] {
			t.Errorf("trace missing process track %q (have %v)", want, procs)
		}
	}
	if jobTracks == 0 {
		t.Error("trace has no job tracks")
	}
	for _, want := range []string{"jobs", "nodes", "capacity"} {
		if !counters[want] {
			t.Errorf("trace missing counter %q (have %v)", want, counters)
		}
	}

	// Time series: header + a nonzero number of sample rows.
	tsData, err := os.ReadFile(tsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(tsData)), "\n")
	if len(lines) < 2 {
		t.Fatalf("time series has no sample rows:\n%s", tsData)
	}
	if !strings.HasPrefix(lines[0], "scheduler,t_s,") {
		t.Errorf("time-series header = %q", lines[0])
	}

	// Summary: one entry per scheduler, jobs accounted for.
	sumData, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	var summaries []map[string]any
	if err := json.Unmarshal(sumData, &summaries); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if len(summaries) != 2 {
		t.Fatalf("summary has %d entries, want 2", len(summaries))
	}
	for _, s := range summaries {
		if arrived, _ := s["arrived"].(float64); arrived == 0 {
			t.Errorf("summary entry %v recorded no arrivals", s["label"])
		}
		if samples, _ := s["samples"].(float64); samples == 0 {
			t.Errorf("summary entry %v recorded no samples", s["label"])
		}
	}
}

// TestObservabilityDoesNotChangeJSONResults: the -json result output
// must be byte-identical with and without the observability exports
// enabled — recording is an observer, not a participant.
func TestObservabilityDoesNotChangeJSONResults(t *testing.T) {
	dir := t.TempDir()
	scenarioPath := filepath.Join("..", "..", "examples", "scenarios", "downey_spot.json")

	var bare, observed, stderr bytes.Buffer
	if code := realMain([]string{"-scenario", scenarioPath, "-json"}, &bare, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if code := realMain([]string{
		"-scenario", scenarioPath, "-json",
		"-trace-out", filepath.Join(dir, "t.json"),
		"-timeseries-out", filepath.Join(dir, "ts.csv"),
	}, &observed, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(bare.Bytes(), observed.Bytes()) {
		t.Error("enabling observability exports changed the -json results")
	}
}

// TestBadFlagsFail: unknown arguments and bad scenarios exit non-zero.
func TestBadFlagsFail(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"stray"}, &out, &errBuf); code == 0 {
		t.Error("stray argument accepted")
	}
	if code := realMain([]string{"-scenario", "does-not-exist.json"}, &out, &errBuf); code == 0 {
		t.Error("missing scenario accepted")
	}
	// The scenario file sets the workload, so a workload flag beside it
	// used to be silently ignored; it is a usage error naming the flag.
	for _, flag := range []string{"-nodes", "-jobs", "-interarrival", "-seed"} {
		errBuf.Reset()
		args := []string{"-scenario", scenarioFile("downey_spot.json"), flag, "3"}
		if code := realMain(args, &out, &errBuf); code != 2 {
			t.Errorf("%s with -scenario: exit %d, want 2 (stderr: %s)", flag, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), flag+" cannot be combined with -scenario") {
			t.Errorf("%s with -scenario: stderr does not name the flag: %s", flag, errBuf.String())
		}
	}
	// A built-in workload flag out of range used to exit 1 with a message
	// naming a scenario key the user never wrote; it is a usage error
	// naming the flag.
	for _, args := range [][]string{
		{"-nodes", "0"}, {"-nodes", "-3"}, {"-jobs", "0"},
		{"-interarrival", "-5"}, {"-interarrival", "NaN"}, {"-interarrival", "+Inf"},
	} {
		errBuf.Reset()
		if code := realMain(args, &out, &errBuf); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "clustersim: "+args[0]+" ") {
			t.Errorf("%v: stderr does not name the flag: %s", args, errBuf.String())
		}
	}
	// A sample interval the simulator would never sample at used to exit
	// 0 with a header-only time-series; it is a usage error.
	for _, dt := range []string{"-5", "NaN", "-Inf"} {
		ts := filepath.Join(t.TempDir(), "ts.csv")
		errBuf.Reset()
		if code := realMain([]string{"-jobs", "4", "-timeseries-out", ts, "-sample-dt", dt}, &out, &errBuf); code != 2 {
			t.Errorf("-sample-dt %s: exit %d, want 2 (stderr: %s)", dt, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), "-sample-dt") {
			t.Errorf("-sample-dt %s: stderr does not name the flag: %s", dt, errBuf.String())
		}
		if _, err := os.Stat(ts); err == nil {
			t.Errorf("-sample-dt %s: a time-series file was still written", dt)
		}
	}
}

// TestTelemetryFlagSmoke: -telemetry-addr binds, prints the address to
// stderr, and -log-json turns stderr into a JSON record stream.
func TestTelemetryFlagSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-jobs", "6", "-telemetry-addr", "127.0.0.1:0", "-log-json",
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
		if rec.Msg == "run finished" {
			sawFinished = true
		}
	}
	if !sawFinished {
		t.Error("no \"run finished\" slog record on stderr")
	}

	var stderr2 bytes.Buffer
	if code := realMain([]string{"-jobs", "6", "-telemetry-addr", "256.0.0.1:bad"},
		&stdout, &stderr2); code != 1 {
		t.Errorf("bad telemetry addr: exit %d, want 1", code)
	}
}
