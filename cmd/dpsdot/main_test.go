package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestMainSmoke prints the default LU graph's plain-text summary.
func TestMainSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-summary"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "graph lu-648x648-r162:") || !strings.Contains(out, "mult[0]") {
		t.Errorf("unexpected summary:\n%s", out)
	}
}

// TestStrayArgumentFails: a positional argument is a usage error naming
// it, not the silent end of flag parsing.
func TestStrayArgumentFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"x", "-summary"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "unexpected arguments: [x -summary]") || stdout.Len() > 0 {
		t.Errorf("exit %d, stdout %d bytes, stderr:\n%s", code, stdout.Len(), stderr.String())
	}
}
