package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dpsim/internal/eventq"
	"dpsim/internal/experiments"
	"dpsim/internal/lu"
	"dpsim/internal/trace"
)

// TestMainSmoke runs one small measure-and-predict configuration end to
// end.
func TestMainSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-n", "648", "-r", "162", "-seeds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"configuration: n=648 r=162", "measured (testbed):", "predicted (sim):"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestUsageErrors: a stray argument, a repetition count below 1, a
// malformed -kill entry, a negative -gantt width and a negative thread,
// node or window count are usage errors that name the culprit, before
// anything runs or any file is written.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "648", "x", "-r", "162"}, "unexpected arguments: [x -r 162]"},
		{[]string{"-n", "648", "-r", "162", "-seeds", "0"}, "-seeds 0"},
		{[]string{"-n", "648", "-r", "162", "-seeds", "-1"}, "-seeds -1"},
		{[]string{"-n", "648", "-r", "162", "-kill", "1:4junk"}, `bad -kill entry "1:4junk"`},
		{[]string{"-n", "648", "-r", "162", "-kill", "1:2,3"}, `bad -kill entry "3"`},
		{[]string{"-n", "648", "-r", "162", "-gantt", "-1"}, "-gantt -1"},
		{[]string{"-n", "48", "-r", "6", "-threads", "-1"}, "-threads -1"},
		{[]string{"-n", "48", "-r", "6", "-multthreads", "-2"}, "-multthreads -2"},
		{[]string{"-n", "48", "-r", "6", "-multnodes", "-1"}, "-multnodes -1"},
		{[]string{"-n", "48", "-r", "6", "-window", "-1"}, "-window -1"},
	} {
		expectUsageError(t, c.args, c.want)
	}
}

// TestGrowingRemovalFails: a -kill entry wider than the start
// multiplication width is a configuration error naming the removal, not
// a silently grown collection.
func TestGrowingRemovalFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-n", "48", "-r", "6", "-multthreads", "8", "-kill", "1:9", "-seeds", "1"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "removal to 9 threads outside 1..8") {
		t.Errorf("exit %d, want 1 naming the removal; stderr:\n%s", code, stderr.String())
	}
}

// TestTraceStrayArgumentFails: a positional argument next to the timing
// exporters, -gantt and -trace-out, is a usage error naming it, not the
// silent end of flag parsing.
func TestTraceStrayArgumentFails(t *testing.T) {
	expectUsageError(t, []string{"-gantt", "80", "x"}, "unexpected arguments: [x]")
	expectUsageError(t, []string{"-trace-out", "t.json", "x", "-gantt", "80"}, "unexpected arguments: [x -gantt 80]")
}

// TestDotStrayArgumentFails: a positional argument next to -dot is a usage
// error naming it, not the silent end of flag parsing.
func TestDotStrayArgumentFails(t *testing.T) {
	expectUsageError(t, []string{"-dot", "g.dot", "x"}, "unexpected arguments: [x]")
}

// expectUsageError runs lusim with args and wants exit 2, a message on
// stderr containing want and nothing on stdout.
func expectUsageError(t *testing.T, args []string, want string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), want) || strings.Contains(stderr.String(), "panic:") {
		t.Errorf("%v: exit %d, want 2 naming %q; stderr:\n%s", args, code, want, stderr.String())
	}
	if stdout.Len() > 0 {
		t.Errorf("%v: printed %q", args, stdout.String())
	}
}

// TestTraceOutSmoke: -trace-out writes the predicted run as trace-event
// JSON with events.
func TestTraceOutSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lu.trace.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-n", "648", "-r", "162", "-seeds", "1", "-trace-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestDotSmoke: -dot writes the configured flow graph in Graphviz syntax.
func TestDotSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lu.dot")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-n", "648", "-r", "162", "-seeds", "1", "-dot", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("digraph")) || !bytes.Contains(data, []byte("mult[0]")) {
		t.Errorf("unexpected dot file:\n%s", data)
	}
}

// TestExportsLeaveReportUnchanged: turning every exporter on appends the
// timing diagram to the report and changes none of its bytes.
func TestExportsLeaveReportUnchanged(t *testing.T) {
	dir := t.TempDir()
	for _, extra := range [][]string{nil, {"-p", "-window", "2"}, {"-kill", "1:2"}} {
		args := append([]string{"-n", "648", "-r", "162", "-seeds", "2", "-iters"}, extra...)
		var plain, exported, stderr bytes.Buffer
		if code := realMain(args, &plain, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", args, code, stderr.String())
		}
		exportArgs := append(append([]string{}, args...), "-gantt", "80",
			"-trace-out", filepath.Join(dir, "t.json"), "-dot", filepath.Join(dir, "g.dot"))
		if code := realMain(exportArgs, &exported, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", exportArgs, code, stderr.String())
		}
		rest, ok := bytes.CutPrefix(exported.Bytes(), plain.Bytes())
		if !ok || !bytes.HasPrefix(rest, []byte("\ntimeline 0 .. ")) {
			t.Errorf("%v: report changed with exporters on:\n%s\nwithout:\n%s", extra, exported.String(), plain.String())
		}
	}
}

// TestTraceEndsAtPrediction: the traced run is the prediction, so its
// last span ends exactly, in virtual nanoseconds, at LURun.Predicted —
// thread removal included.
func TestTraceEndsAtPrediction(t *testing.T) {
	base := lu.Config{N: 648, R: 162, Nodes: 4}
	pfc, pm, kill := base, base, base
	pfc.Pipelined, pfc.Window = true, 2
	pm.ParallelMult = true
	kill.Removals = []lu.Removal{{AfterIter: 1, MultThreads: 2}}
	for name, cfg := range map[string]lu.Config{"basic": base, "P+FC": pfc, "PM": pm, "kill 1:2": kill} {
		rec := trace.NewRecorder()
		run, err := experiments.MeasureAndPredict(name, cfg, experiments.Setup{Seeds: 1, Trace: rec.Hook})
		if err != nil {
			t.Fatal(err)
		}
		var end eventq.Time
		for _, s := range rec.Spans() {
			end = max(end, s.End)
		}
		if want := eventq.Time(math.Round(run.Predicted * 1e9)); end != want {
			t.Errorf("%s: last span ends at %d ns, prediction %d ns", name, int64(end), int64(want))
		}
	}
}
