package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestMainSmoke regenerates one quick figure.
func TestMainSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-exp", "fig11", "-quick", "-seeds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Fig. 11") || !strings.Contains(out, "(completed in ") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestUsageErrors: a stray argument, a repetition count below 1 and an
// unknown experiment are usage errors that name the culprit, before any
// experiment runs. A stray argument must not end flag parsing silently:
// the flags after it would be dropped and the full-scale -exp all run.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"x", "-exp", "fig12", "-quick"}, "unexpected arguments: [x -exp fig12 -quick]"},
		{[]string{"-exp", "fig12", "-quick", "-seeds", "0"}, "-seeds 0"},
		{[]string{"-exp", "fig12", "-quick", "-seeds", "-1"}, "-seeds -1"},
		{[]string{"-exp", "nope", "-quick"}, `-exp "nope": unknown experiment`},
	} {
		var stdout, stderr bytes.Buffer
		code := realMain(c.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: exit %d, want 2 naming %q; stderr:\n%s", c.args, code, c.want, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: printed %q", c.args, stdout.String())
		}
	}
}
