package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestMainSmoke emits the default LU run's trace as trace-event JSON.
func TestMainSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &trace); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestStrayArgumentFails: a positional argument is a usage error naming
// it, not the silent end of flag parsing.
func TestStrayArgumentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"x", "-json"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "unexpected arguments: [x -json]") || stdout.Len() > 0 {
		t.Errorf("exit %d, stdout %d bytes, stderr:\n%s", code, stdout.Len(), stderr.String())
	}
}
