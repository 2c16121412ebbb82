package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dpsim/internal/telemetry"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the telemetry test reads
// stderr while realMain is still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func scenarioPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("..", "..", "examples", "scenarios", "openload.json")
}

// TestRealMainSmoke drives the full CLI path in-process: exports land
// complete, the structured log stream parses, and exit codes behave.
func TestRealMainSmoke(t *testing.T) {
	dir := t.TempDir()
	csvOut := filepath.Join(dir, "out.csv")
	jsonOut := filepath.Join(dir, "out.json")
	tsOut := filepath.Join(dir, "ts.csv")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{
		"-scenario", scenarioPath(t), "-replications", "2", "-workers", "2", "-q",
		"-csv", csvOut, "-json", jsonOut, "-timeseries-out", tsOut, "-log-json",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	// Exports are complete files (atomic write), parseable as their format.
	rows, err := csv.NewReader(mustOpen(t, csvOut)).ReadAll()
	if err != nil || len(rows) < 2 {
		t.Fatalf("csv export: rows=%d err=%v", len(rows), err)
	}
	var report struct {
		Scenario string `json:"scenario"`
	}
	if err := json.Unmarshal(mustRead(t, jsonOut), &report); err != nil {
		t.Fatalf("json export: %v", err)
	}
	if report.Scenario != "openload" {
		t.Errorf("scenario = %q", report.Scenario)
	}
	if tsRows, err := csv.NewReader(mustOpen(t, tsOut)).ReadAll(); err != nil || len(tsRows) < 2 {
		t.Fatalf("timeseries export: rows=%d err=%v", len(tsRows), err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Errorf("temp files left behind: %v", entries)
	}
	// Every stderr line is a JSON slog record; the lifecycle events appear.
	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		var rec struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line is not JSON: %q (%v)", line, err)
		}
		msgs = append(msgs, rec.Msg)
	}
	joined := strings.Join(msgs, ";")
	for _, want := range []string{"sweep starting", "sweep finished", "export written"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log stream missing %q event: %v", want, msgs)
		}
	}
}

func TestRealMainFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"missing scenario", []string{"-q"}, 2},
		{"bad replications", []string{"-scenario", "x.json", "-replications", "0"}, 2},
		{"unknown flag", []string{"-nope"}, 2},
		{"bad telemetry addr", []string{"-scenario", scenarioPath(t), "-telemetry-addr", "256.0.0.1:bad"}, 1},
		{"missing file", []string{"-scenario", "does-not-exist.json"}, 1},
		// A sample interval the simulator would never sample at used to
		// exit 0 with a header-only time-series.
		{"negative sample-dt", []string{"-scenario", scenarioPath(t), "-q",
			"-timeseries-out", filepath.Join(t.TempDir(), "ts.csv"), "-sample-dt", "-5"}, 2},
		{"NaN sample-dt", []string{"-scenario", scenarioPath(t), "-q",
			"-timeseries-out", filepath.Join(t.TempDir(), "ts.csv"), "-sample-dt", "NaN"}, 2},
		{"infinite sample-dt", []string{"-scenario", scenarioPath(t), "-q", "-sample-dt", "+Inf"}, 2},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, stderr.String())
		}
	}
}

// TestBadFlagsFail: a usage error names what was wrong on stderr. The
// workload flags of the built-in classic workload (-nodes, -jobs,
// -interarrival, -seed) are not flags: the scenario file sets the
// workload, so passing one is a usage error rather than silently ignored.
func TestBadFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"stray argument", []string{"-scenario", scenarioFile("classic.json"), "stray"}, "unexpected arguments: [stray]"},
		{"no scenario", []string{"-replications", "2"}, "-scenario is required"},
		{"-nodes", []string{"-scenario", scenarioFile("downey_spot.json"), "-nodes", "3"}, "-nodes"},
		{"-jobs", []string{"-scenario", scenarioFile("downey_spot.json"), "-jobs", "3"}, "-jobs"},
		{"-interarrival", []string{"-scenario", scenarioFile("downey_spot.json"), "-interarrival", "3"}, "-interarrival"},
		{"-seed", []string{"-scenario", scenarioFile("downey_spot.json"), "-seed", "3"}, "-seed"},
		{"bad sample-dt", []string{"-scenario", scenarioFile("classic.json"), "-q",
			"-timeseries-out", filepath.Join(t.TempDir(), "ts.csv"), "-sample-dt", "-Inf"}, "-sample-dt"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr does not name %q: %s", tc.name, tc.want, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-scenario", "does-not-exist.json"}, &stdout, &stderr); code == 0 {
		t.Error("missing scenario file accepted")
	}
	if !strings.Contains(stderr.String(), "does-not-exist.json") {
		t.Errorf("missing scenario file: stderr does not name it: %s", stderr.String())
	}
}

// TestRealMainTelemetryScrape: with -telemetry-addr :0, the CLI prints
// the bound address to stderr and a live scrape mid-sweep serves sweep
// metrics and progress.
func TestRealMainTelemetryScrape(t *testing.T) {
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	done := make(chan int, 1)
	// Enough replications that the sweep is still running when the scrape
	// lands (the whole grid is ~hundreds of ms; the address appears in the
	// first few ms).
	go func() {
		done <- realMain([]string{
			"-scenario", scenarioPath(t), "-replications", "40", "-workers", "2", "-q",
			"-telemetry-addr", "127.0.0.1:0",
		}, &stdout, stderr)
	}()

	addrRE := regexp.MustCompile(`telemetry: serving on http://(\S+)`)
	var addr string
	for i := 0; i < 500 && addr == ""; i++ {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case code := <-done:
			t.Fatalf("realMain exited (%d) before printing the telemetry address: %s", code, stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if addr == "" {
		t.Fatalf("telemetry address never printed: %s", stderr.String())
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dpsim_sweep_runs_total 640",
		"dpsim_sweep_runs_started_total ",
		`dpsim_sweep_worker_busy_ns_total{worker="0"}`,
		"go_goroutines ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	resp, err = http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatalf("progress: %v", err)
	}
	var info telemetry.ProgressInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Active || info.RunsTotal != 640 || info.Workers == nil || len(info.Workers) != 2 {
		t.Errorf("progress = %+v", info)
	}

	if code := <-done; code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

func mustOpen(t *testing.T, path string) io.Reader {
	t.Helper()
	data := mustRead(t, path)
	return bytes.NewReader(data)
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
