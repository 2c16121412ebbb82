package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dpsim/internal/sweep"
)

// readCSV parses an export into its lines, header first.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(bytes.NewReader(mustRead(t, path))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCellReplaysGridRows: every row of a sweep can be replayed from
// the table's cell column — -cell runs the row's cell alone, with the
// full grid's seeds, and exports the same CSV row byte for byte.
func TestCellReplaysGridRows(t *testing.T) {
	for _, name := range []string{"downey_spot.json", "federated_volatile.json"} {
		dir := t.TempDir()
		full := filepath.Join(dir, "full.csv")
		common := []string{"-scenario", scenarioFile(name), "-replications", "2"}
		var stdout, stderr bytes.Buffer
		if code := realMain(append(common, "-csv", full), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		cells := tableCells(t, stdout.String())
		fullLines := strings.SplitAfter(string(mustRead(t, full)), "\n")
		if len(cells) != len(fullLines)-2 { // header, rows, trailing ""
			t.Fatalf("%s: %d table rows, %d CSV rows", name, len(cells), len(fullLines)-2)
		}
		for i, cell := range cells {
			one := filepath.Join(dir, cell+".csv")
			stdout.Reset()
			stderr.Reset()
			if code := realMain(append(common, "-q", "-cell", cell, "-csv", one), &stdout, &stderr); code != 0 {
				t.Fatalf("%s -cell %s: exit %d: %s", name, cell, code, stderr.String())
			}
			want := fullLines[0] + fullLines[i+1]
			if got := string(mustRead(t, one)); got != want {
				t.Errorf("%s -cell %s:\n got %q\nwant %q", name, cell, got, want)
			}
		}
	}
}

// TestCellFlagErrors: a -cell prefix must select exactly one cell hash,
// -cell replays cells of the whole grid (no -shard, no -merge), and the
// trace and summary exports refuse -checkpoint as the time series does.
func TestCellFlagErrors(t *testing.T) {
	sc := scenarioPath(t)
	spec := loadScenario(t, "openload.json")
	_, hashes, err := sweep.CellsMatching(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	// A one-digit prefix that several of the grid's 16 hashes share.
	byDigit := map[string]int{}
	shared := ""
	for _, h := range hashes {
		d := h.String()[:1]
		if byDigit[d]++; byDigit[d] == 2 {
			shared = d
		}
	}
	if shared == "" {
		t.Fatal("no two openload cell hashes share a first digit")
	}
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"unknown prefix", []string{"-scenario", sc, "-cell", "zz"}, "matches 0 cell hashes"},
		{"ambiguous prefix", []string{"-scenario", sc, "-cell", shared},
			fmt.Sprintf("matches %d cell hashes", byDigit[shared])},
		{"cell with shard", []string{"-scenario", sc, "-cell", hashes[0].Short(), "-shard", "0/2", "-checkpoint", "s.json"}, "-cell"},
		{"cell with merge", []string{"-scenario", sc, "-cell", hashes[0].Short(), "-merge", "a.json"}, "-cell"},
		{"trace with checkpoint", []string{"-scenario", sc, "-checkpoint", "ck.json", "-trace-out", "t.json"}, "-checkpoint"},
		{"summary with checkpoint", []string{"-scenario", sc, "-checkpoint", "ck.json", "-summary-out", "s.json"}, "-checkpoint"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("%s: stderr does not say %q: %s", tc.name, tc.msg, stderr.String())
		}
	}
}
