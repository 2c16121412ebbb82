// Package clitest runs a command's main() in-process for smoke tests. It
// serves the commands without a realMain seam: they parse the global flag
// set and print to os.Stdout.
package clitest

import (
	"flag"
	"io"
	"os"
	"testing"
)

// RunMain runs main with args as its command line (after the program
// name) on a fresh global flag set and returns what it printed to stdout.
// A main that calls os.Exit ends the test binary, failing the test.
func RunMain(t testing.TB, main func(), args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"cmd"}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	main()
	w.Close()
	return string(<-out)
}
