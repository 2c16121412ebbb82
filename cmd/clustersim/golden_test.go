package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpsim/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/cli_golden.txt from the current CLI")

// goldenCases are the comparison shapes the CLI golden pins: the built-in
// workload, a parameterized scheduler list, a scenario with availability
// and both federated example scenarios.
var goldenCases = []struct {
	name string
	args []string
}{
	{"jobs12", []string{"-jobs", "12"}},
	{"schedulers", []string{"-schedulers",
		"rigid-fcfs,easy-backfill,malleable-hysteresis(epoch_s=45,min_delta=2)", "-jobs", "12"}},
	{"downey_spot", []string{"-scenario", scenarioFile("downey_spot.json")}},
	{"federated_basic", []string{"-scenario", scenarioFile("federated_basic.json")}},
	{"federated_volatile", []string{"-scenario", scenarioFile("federated_volatile.json")}},
}

func scenarioFile(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

// cliFingerprints runs one case twice — once with every observability
// export, once with -json — and returns the SHA-256 of each artifact,
// keyed "<case> <artifact>". The summary's scheduler_latency block is
// wall-clock time and is zeroed before hashing.
func cliFingerprints(t *testing.T, name string, args []string) []string {
	t.Helper()
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	ts := filepath.Join(dir, "ts.csv")
	sum := filepath.Join(dir, "summary.json")
	run := func(extra ...string) []byte {
		var stdout, stderr bytes.Buffer
		if code := realMain(append(append([]string{}, args...), extra...), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", name, code, stderr.String())
		}
		return stdout.Bytes()
	}
	table := run("-trace-out", trace, "-timeseries-out", ts, "-summary-out", sum)
	jsonOut := run("-json")
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var summaries []obs.Summary
	if err := json.Unmarshal(read(sum), &summaries); err != nil {
		t.Fatal(err)
	}
	for i := range summaries {
		summaries[i].SchedulerLatency = obs.LatencySummary{}
	}
	var stripped bytes.Buffer
	if err := obs.WriteSummaryJSON(&stripped, summaries); err != nil {
		t.Fatal(err)
	}
	artifacts := []struct {
		what string
		data []byte
	}{
		{"stdout", table}, {"json", jsonOut}, {"trace", read(trace)},
		{"timeseries", read(ts)}, {"summary", stripped.Bytes()},
	}
	lines := make([]string, len(artifacts))
	for i, a := range artifacts {
		lines[i] = fmt.Sprintf("%s %s %x", name, a.what, sha256.Sum256(a.data))
	}
	return lines
}

// TestCLIGolden pins clustersim's stdout table, -json output and all three
// observability exports byte for byte, by SHA-256 fingerprint, for plain
// and federated comparisons. Regenerate with -update only for a reviewed
// behaviour change.
func TestCLIGolden(t *testing.T) {
	var got []string
	for _, c := range goldenCases {
		got = append(got, cliFingerprints(t, c.name, c.args)...)
	}
	const path = "testdata/cli_golden.txt"
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d fingerprints, the CLI produced %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
