package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/cli_golden.txt from the current CLI")

// lu648 is the LU size every golden case runs at.
var lu648 = []string{"-n", "648", "-r", "162"}

// exportFlags maps each file artifact the golden fingerprints to the
// flag that writes it; "stdout" is the report.
var exportFlags = map[string]string{
	"dot":   "-dot",
	"trace": "-trace-out",
}

// goldenCases are the invocations the CLI golden pins, each with the
// artifacts it fingerprints: "stdout" is the report.
var goldenCases = []struct {
	name      string
	args      []string
	artifacts []string
}{
	{"basic", []string{"-seeds", "2"}, []string{"stdout"}},
	{"iters", []string{"-seeds", "2", "-iters"}, []string{"stdout"}},
	{"p_fc", []string{"-seeds", "2", "-p", "-window", "2"}, []string{"stdout"}},
	{"pm", []string{"-seeds", "2", "-pm"}, []string{"stdout"}},
	{"kill", []string{"-seeds", "2", "-kill", "1:2"}, []string{"stdout"}},
	// The -dot fingerprints are those of the flow graphs the former
	// single-purpose dot command printed for the same LU flags.
	{"dot_basic", []string{"-seeds", "1"}, []string{"dot"}},
	{"dot_p", []string{"-seeds", "1", "-p"}, []string{"dot"}},
	{"dot_pm_fc", []string{"-seeds", "1", "-pm", "-window", "2"}, []string{"dot"}},
	{"gantt_basic", []string{"-seeds", "1", "-gantt", "100"}, []string{"stdout", "trace"}},
	{"gantt_p_fc", []string{"-seeds", "1", "-p", "-window", "2", "-gantt", "100"}, []string{"stdout", "trace"}},
	{"gantt_kill", []string{"-seeds", "1", "-kill", "1:2", "-gantt", "100"}, []string{"stdout", "trace"}},
}

// cliFingerprints runs one case with every requested file artifact and
// returns the SHA-256 of each artifact, keyed "<case> <artifact>".
func cliFingerprints(t *testing.T, name string, args, artifacts []string) []string {
	t.Helper()
	dir := t.TempDir()
	args = append(append([]string{}, lu648...), args...)
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
		data := stdout.Bytes()
		if a != "stdout" {
			var err error
			if data, err = os.ReadFile(filepath.Join(dir, a)); err != nil {
				t.Fatal(err)
			}
		}
		lines[i] = fmt.Sprintf("%s %s %x", name, a, sha256.Sum256(data))
	}
	return lines
}

// TestCLIGolden pins lusim's report and exports byte for byte, by
// SHA-256 fingerprint, and requires every artifact to be identical at
// GOMAXPROCS 1 and 4. Regenerate with -update only for a reviewed
// behaviour change.
func TestCLIGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got []string
	for _, c := range goldenCases {
		runtime.GOMAXPROCS(1)
		one := cliFingerprints(t, c.name, c.args, c.artifacts)
		runtime.GOMAXPROCS(4)
		four := cliFingerprints(t, c.name, c.args, c.artifacts)
		for i := range one {
			if one[i] != four[i] {
				t.Errorf("%s: GOMAXPROCS 1 and 4 differ:\n %s\n %s", c.name, one[i], four[i])
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
