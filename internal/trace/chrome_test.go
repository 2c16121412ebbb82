package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"dpsim/internal/obs"
)

// TestAppendChromeTrace: an engine run's timing diagram must come out as
// valid trace-event JSON with node processes, per-thread compute and
// transfer tracks, one complete event per span (every transfer with a
// length), and phase instants.
func TestAppendChromeTrace(t *testing.T) {
	r := runTraced(t)
	var tr obs.Trace
	r.AppendChromeTrace(&tr)
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &file); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	threads := map[string]bool{}
	var phases, completes, transfers int
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "M":
			args := ev["args"].(map[string]any)
			name := args["name"].(string)
			if ev["name"] == "process_name" {
				procs[name] = true
			} else if ev["name"] == "thread_name" {
				threads[name] = true
			}
		case "X":
			completes++
			if ev["cat"] == "transfer" {
				transfers++
				if dur, _ := ev["dur"].(float64); dur <= 0 {
					t.Errorf("transfer without length: %v", ev)
				}
			}
		case "i":
			if ev["name"] == "iter:0" {
				phases++
			}
		}
	}
	for _, want := range []string{"node 0", "node 1", "node 2"} {
		if !procs[want] {
			t.Errorf("missing process %q (have %v)", want, procs)
		}
	}
	for _, want := range []string{"thread 0 compute", "thread 0 transfer", "thread 1 compute", "thread 1 transfer"} {
		if !threads[want] {
			t.Errorf("missing track %q (have %v)", want, threads)
		}
	}
	if completes != len(r.Spans()) {
		t.Errorf("complete events = %d, want one per span (%d)", completes, len(r.Spans()))
	}
	if transfers != 8 {
		t.Errorf("transfer events = %d, want 8 (4 out, 4 back)", transfers)
	}
	if phases != 1 {
		t.Errorf("phase instants = %d, want 1", phases)
	}
}
