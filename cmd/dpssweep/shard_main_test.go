package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRealMainShardMerge drives the sharded workflow end to end through
// the CLI: two shard runs, each into its checkpoint, plus a merge export
// byte-identical CSV and JSON to a single-process run — and a merge that
// leaves -replications to the checkpoints agrees.
func TestRealMainShardMerge(t *testing.T) {
	dir := t.TempDir()
	singleCSV := filepath.Join(dir, "single.csv")
	singleJSON := filepath.Join(dir, "single.json")
	scenario := []string{"-scenario", scenarioPath(t), "-q"}
	common := append(scenario, "-replications", "2")
	var stdout, stderr bytes.Buffer
	if code := realMain(append(common, "-csv", singleCSV, "-json", singleJSON), &stdout, &stderr); code != 0 {
		t.Fatalf("single run exit %d: %s", code, stderr.String())
	}

	var shardPaths []string
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		stdout.Reset()
		stderr.Reset()
		args := append(common, "-shard", fmt.Sprintf("%d/2", i), "-checkpoint", p)
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("shard %d exit %d: %s", i, code, stderr.String())
		}
		shardPaths = append(shardPaths, p)
	}

	for _, args := range [][]string{common, scenario} {
		mergedCSV := filepath.Join(dir, "merged.csv")
		mergedJSON := filepath.Join(dir, "merged.json")
		stdout.Reset()
		stderr.Reset()
		args = append(args, "-merge", strings.Join(shardPaths, ","), "-csv", mergedCSV, "-json", mergedJSON)
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("merge %v exit %d: %s", args, code, stderr.String())
		}
		if !bytes.Equal(mustRead(t, mergedCSV), mustRead(t, singleCSV)) {
			t.Errorf("merge %v: CSV differs from the single-process run", args)
		}
		if !bytes.Equal(mustRead(t, mergedJSON), mustRead(t, singleJSON)) {
			t.Errorf("merge %v: JSON differs from the single-process run", args)
		}
	}
}

// TestRealMainMergeReplicationsMismatch: the shard checkpoints fix the
// replication count, so an explicit -replications that disagrees is an
// error naming both counts instead of a silently ignored flag.
func TestRealMainMergeReplicationsMismatch(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	var stdout, stderr bytes.Buffer
	for i := 0; i < 2; i++ {
		p := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		if code := realMain([]string{"-scenario", scenarioPath(t), "-q", "-replications", "2",
			"-shard", fmt.Sprintf("%d/2", i), "-checkpoint", p}, &stdout, &stderr); code != 0 {
			t.Fatalf("shard %d exit %d: %s", i, code, stderr.String())
		}
		paths = append(paths, p)
	}
	out := filepath.Join(dir, "merged.csv")
	code := realMain([]string{"-scenario", scenarioPath(t), "-q", "-replications", "50",
		"-merge", strings.Join(paths, ","), "-csv", out}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "-replications 50") || !strings.Contains(msg, "folded 2 replications") {
		t.Errorf("error does not name both replication counts: %s", msg)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a mismatched merge still wrote its export")
	}
}

// TestRealMainCheckpointResume: a completed checkpointed run leaves a
// checkpoint file, and rerunning the same command resumes from it and
// reproduces the export bytes.
func TestRealMainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.json")
	firstCSV := filepath.Join(dir, "first.csv")
	secondCSV := filepath.Join(dir, "second.csv")
	common := []string{"-scenario", scenarioPath(t), "-replications", "2", "-q",
		"-checkpoint", ck, "-checkpoint-every", "4"}
	var stdout, stderr bytes.Buffer
	if code := realMain(append(common, "-csv", firstCSV), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := realMain(append(common, "-csv", secondCSV), &stdout, &stderr); code != 0 {
		t.Fatalf("resume exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(mustRead(t, firstCSV), mustRead(t, secondCSV)) {
		t.Error("resumed export differs")
	}
}

// TestRealMainLogsExecutedRuns: the "sweep finished" record counts the
// runs this process executed, not the grid's cells × replications — a
// fresh sweep executes the whole grid, resuming its completed
// checkpoint executes nothing.
func TestRealMainLogsExecutedRuns(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	args := []string{"-scenario", scenarioPath(t), "-replications", "2", "-q", "-checkpoint", ck, "-log-json"}
	for _, want := range []float64{32, 0} { // openload: 16 cells × 2 replications
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		runs := -1.0
		for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
			var rec struct {
				Msg  string  `json:"msg"`
				Runs float64 `json:"runs"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Msg == "sweep finished" {
				runs = rec.Runs
			}
		}
		if runs != want {
			t.Errorf("sweep finished logged runs %v, want %v:\n%s", runs, want, stderr.String())
		}
	}
}

// TestRealMainShardFlagErrors: the shard/merge/checkpoint flag surface
// rejects contradictory combinations with usage errors (exit 2).
func TestRealMainShardFlagErrors(t *testing.T) {
	sc := scenarioPath(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"shard without checkpoint", []string{"-scenario", sc, "-shard", "0/2"}},
		{"bad shard spec", []string{"-scenario", sc, "-shard", "2/2", "-checkpoint", "s.json"}},
		{"shard with csv", []string{"-scenario", sc, "-shard", "0/2", "-checkpoint", "s.json", "-csv", "o.csv"}},
		{"shard with merge", []string{"-scenario", sc, "-shard", "0/2", "-checkpoint", "s.json", "-merge", "a.json"}},
		{"merge with checkpoint", []string{"-scenario", sc, "-merge", "a.json", "-checkpoint", "ck.json"}},
		{"merge with timeseries", []string{"-scenario", sc, "-merge", "a.json", "-timeseries-out", "ts.csv"}},
		{"checkpoint with timeseries", []string{"-scenario", sc, "-checkpoint", "ck.json", "-timeseries-out", "ts.csv"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr.String())
		}
	}
}
