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

// exportFlags maps each file artifact the golden fingerprints to the
// flag that writes it; "table" is the stdout table.
var exportFlags = map[string]string{
	"csv":        "-csv",
	"json":       "-json",
	"timeseries": "-timeseries-out",
	"trace":      "-trace-out",
	"summary":    "-summary-out",
}

// observed is every artifact, the three observability exports included.
var observed = []string{"table", "csv", "json", "timeseries", "trace", "summary"}

// tabular is the stdout table and the two result exports.
var tabular = []string{"table", "csv", "json"}

// goldenCases are the invocations the CLI golden pins, each with the
// artifacts it fingerprints.
var goldenCases = []struct {
	name      string
	args      []string
	artifacts []string
}{
	{"openload", []string{"-scenario", scenarioFile("openload.json"), "-replications", "2"},
		[]string{"table", "csv", "json", "timeseries"}},
	{"downey_spot", []string{"-scenario", scenarioFile("downey_spot.json")},
		[]string{"table", "csv", "json", "timeseries"}},
	{"failures", []string{"-scenario", scenarioFile("failures.json")},
		[]string{"table", "csv", "json", "timeseries"}},
	{"federated_basic", []string{"-scenario", scenarioFile("federated_basic.json")},
		[]string{"table", "csv", "json"}},
	{"downey_spot_cell", []string{"-scenario", scenarioFile("downey_spot.json"),
		"-cell", "f2a1465f7015", "-replications", "2"}, observed},
	{"classic_schedulers", []string{"-scenario", scenarioFile("classic.json"),
		"-schedulers", "rigid-fcfs,easy-backfill,malleable-hysteresis(epoch_s=45,min_delta=2)"}, observed},
	{"federated_basic_observed", []string{"-scenario", scenarioFile("federated_basic.json")}, observed},
	{"federated_volatile", []string{"-scenario", scenarioFile("federated_volatile.json")}, observed},
	{"volatile", []string{"-scenario", scenarioFile("volatile.json")}, tabular},
	{"backfill_spot", []string{"-scenario", scenarioFile("backfill_spot.json")}, tabular},
	{"spot", []string{"-scenario", scenarioFile("spot.json")}, tabular},
	{"captrace", []string{"-scenario", scenarioFile("captrace.json")}, tabular},
	{"replay", []string{"-scenario", scenarioFile("replay.json")}, tabular},
	{"bursty", []string{"-scenario", scenarioFile("bursty.json")}, tabular},
	{"closed", []string{"-scenario", scenarioFile("closed.json")}, tabular},
	{"diurnal", []string{"-scenario", scenarioFile("diurnal.json")}, tabular},
	{"fairshare_diurnal", []string{"-scenario", scenarioFile("fairshare_diurnal.json")}, tabular},
	{"amdahl_sweep", []string{"-scenario", scenarioFile("amdahl_sweep.json")}, tabular},
	{"roofline_mix", []string{"-scenario", scenarioFile("roofline_mix.json")}, tabular},
	// Every bare and cost-carrying form of the comm-factor and roofline
	// models, as -appmodels overrides.
	{"openload_appmodels", []string{"-scenario", scenarioFile("openload.json"), "-replications", "2",
		"-appmodels", "mix,amdahl(f=0.1),amdahl(f=0.3,migrate_s=2,ckpt_s=1),fixed,fixed(migrate_s=1),roofline(sat=4)"},
		tabular},
}

func scenarioFile(name string) string {
	return filepath.Join("..", "..", "examples", "scenarios", name)
}

// cliFingerprints runs one case at the given worker count with every
// requested export and returns the SHA-256 of each artifact, keyed
// "<case> <artifact>". The table is stdout from its header on: the
// progress line and the run-count line before it carry wall-clock rates
// and the worker count. The summary's scheduler_latency block is
// wall-clock time and is zeroed before hashing.
func cliFingerprints(t *testing.T, name string, args, artifacts []string, workers int) []string {
	t.Helper()
	dir := t.TempDir()
	args = append(append([]string{}, args...), "-workers", fmt.Sprint(workers))
	for _, a := range artifacts {
		if f, ok := exportFlags[a]; ok {
			args = append(args, f, filepath.Join(dir, a))
		}
	}
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d, stderr:\n%s", name, code, stderr.String())
	}
	lines := make([]string, len(artifacts))
	for i, a := range artifacts {
		var data []byte
		if a == "table" {
			out := stdout.Bytes()
			at := bytes.Index(out, []byte("\ncell "))
			if at < 0 {
				t.Fatalf("%s: no table on stdout:\n%s", name, out)
			}
			data = out[at:]
		} else {
			data = mustRead(t, filepath.Join(dir, a))
		}
		if a == "summary" {
			data = zeroLatency(t, data)
		}
		lines[i] = fmt.Sprintf("%s %s %x", name, a, sha256.Sum256(data))
	}
	return lines
}

// TestCLIGolden pins dpssweep's stdout table and exports byte for byte,
// by SHA-256 fingerprint, and requires every artifact to be identical at
// one and at four workers. Regenerate with -update only for a reviewed
// behaviour change.
func TestCLIGolden(t *testing.T) {
	var got []string
	for _, c := range goldenCases {
		one := cliFingerprints(t, c.name, c.args, c.artifacts, 1)
		four := cliFingerprints(t, c.name, c.args, c.artifacts, 4)
		for i := range one {
			if one[i] != four[i] {
				t.Errorf("%s: -workers 1 and 4 differ:\n %s\n %s", c.name, one[i], four[i])
			}
		}
		got = append(got, one...)
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
	want := strings.Split(strings.TrimSpace(string(mustRead(t, path))), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d fingerprints, the CLI produced %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// zeroLatency re-renders a -summary-out file with every
// scheduler_latency block zeroed.
func zeroLatency(t *testing.T, data []byte) []byte {
	t.Helper()
	var summaries []obs.Summary
	if err := json.Unmarshal(data, &summaries); err != nil {
		t.Fatal(err)
	}
	for i := range summaries {
		summaries[i].SchedulerLatency = obs.LatencySummary{}
	}
	var b bytes.Buffer
	if err := obs.WriteSummaryJSON(&b, summaries); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCLIGoldenCoversEveryExample requires every example scenario to be
// the scenario of at least one golden case, so a change to any of them
// shows up as a drifted fingerprint.
func TestCLIGoldenCoversEveryExample(t *testing.T) {
	files, err := filepath.Glob(scenarioFile("*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example scenarios found")
	}
	pinned := map[string]bool{}
	for _, c := range goldenCases {
		pinned[c.args[1]] = true
	}
	for _, f := range files {
		if !pinned[f] {
			t.Errorf("%s has no case in goldenCases", f)
		}
	}
}
