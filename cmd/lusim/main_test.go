package main

import (
	"strings"
	"testing"

	"dpsim/internal/clitest"
)

// TestMainSmoke runs one small measure-and-predict configuration end to
// end.
func TestMainSmoke(t *testing.T) {
	out := clitest.RunMain(t, main, "-n", "648", "-r", "162", "-seeds", "1")
	for _, want := range []string{"configuration: n=648 r=162", "measured (testbed):", "predicted (sim):"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
