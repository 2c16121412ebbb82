package main

import (
	"strings"
	"testing"

	"dpsim/internal/clitest"
)

// TestMainSmoke regenerates one quick figure.
func TestMainSmoke(t *testing.T) {
	out := clitest.RunMain(t, main, "-exp", "fig11", "-quick", "-seeds", "1")
	if !strings.Contains(out, "Fig. 11") || !strings.Contains(out, "(completed in ") {
		t.Errorf("unexpected output:\n%s", out)
	}
}
