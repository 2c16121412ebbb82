package main

import (
	"encoding/json"
	"testing"

	"dpsim/internal/clitest"
)

// TestMainSmoke emits the default LU run's trace as trace-event JSON.
func TestMainSmoke(t *testing.T) {
	out := clitest.RunMain(t, main, "-json")
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &trace); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}
