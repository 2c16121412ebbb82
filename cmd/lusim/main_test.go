package main

import (
	"bytes"
	"strings"
	"testing"
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

// TestUsageErrors: a stray argument and a repetition count below 1 are
// usage errors that name the culprit, before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "648", "x", "-r", "162"}, "unexpected arguments: [x -r 162]"},
		{[]string{"-n", "648", "-r", "162", "-seeds", "0"}, "-seeds 0"},
		{[]string{"-n", "648", "-r", "162", "-seeds", "-1"}, "-seeds -1"},
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
