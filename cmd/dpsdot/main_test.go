package main

import (
	"strings"
	"testing"

	"dpsim/internal/clitest"
)

// TestMainSmoke prints the default LU graph's plain-text summary.
func TestMainSmoke(t *testing.T) {
	out := clitest.RunMain(t, main, "-summary")
	if !strings.HasPrefix(out, "graph lu-648x648-r162:") || !strings.Contains(out, "mult[0]") {
		t.Errorf("unexpected summary:\n%s", out)
	}
}
