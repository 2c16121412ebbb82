package sweep

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dpsim/internal/cluster"
)

// TestWriteCSVQuotesSpecialFields: scenario names or trace labels with
// commas/quotes must round-trip through RFC 4180 quoting instead of
// corrupting the column layout.
func TestWriteCSVQuotesSpecialFields(t *testing.T) {
	stats := []CellStats{{
		Cell:         Cell{Arrival: `trace:odd,"name".csv`, Avail: "none", Nodes: 4, Load: 1, Scheduler: "rigid-fcfs", AppModel: "mix"},
		Replications: 1, Jobs: 2,
		MeanResponse: 1, P50Response: 1, P95Response: 2, P99Response: 3,
		MeanMakespan: 5, MeanUtilization: 0.5, MeanSlowdown: 1.5,
	}}
	var b strings.Builder
	if err := WriteCSV(&b, "nodes,loads study", stats); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatalf("export not parseable: %v", err)
	}
	if len(rows) != 2 || len(rows[1]) != 30 {
		t.Fatalf("rows = %d, fields = %d", len(rows), len(rows[1]))
	}
	if rows[1][0] != "nodes,loads study" || rows[1][1] != `trace:odd,"name".csv` {
		t.Fatalf("fields corrupted: %q, %q", rows[1][0], rows[1][1])
	}
}

// TestOutputDocColumns: docs/output.md must carry the exact CSV header
// and a mention of every column — the doc fails CI when the export
// schema drifts.
func TestOutputDocColumns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "output.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	cols := CSVColumns()
	if len(cols) < 10 {
		t.Fatalf("suspicious column list: %v", cols)
	}
	if header := strings.Join(cols, ","); !strings.Contains(doc, header) {
		t.Errorf("docs/output.md does not contain the exact CSV header:\n%s", header)
	}
	for _, col := range cols {
		if !strings.Contains(doc, "`"+col+"`") {
			t.Errorf("column %q is not documented in docs/output.md", col)
		}
	}
}

// TestOutputDocNonFinite: the field list of docs/output.md's "Non-finite
// results" (the backquoted names between "A run whose" and "is not
// finite") must equal the fields nonFinite checks, found by poisoning
// each float field of a Result and of one of its jobs in turn.
func TestOutputDocNonFinite(t *testing.T) {
	checked := map[string]bool{}
	poison := func(v reflect.Value, r *cluster.Result, perJob bool) {
		for i := range v.NumField() {
			f := v.Field(i)
			if f.Kind() != reflect.Float64 {
				continue
			}
			old := f.Float()
			f.SetFloat(math.NaN())
			name, _, ok := nonFinite(r)
			f.SetFloat(old)
			field := v.Type().Field(i).Name
			switch {
			case !ok:
			case perJob && name == fmt.Sprintf("%s of job 7", strings.ToLower(field)):
				checked[field] = true
			case !perJob && name == field:
				checked[field] = true
			default:
				t.Errorf("NaN in %s reported as %q", field, name)
			}
		}
	}
	r := cluster.Result{PerJob: []cluster.JobOutcome{{ID: 7}}}
	poison(reflect.ValueOf(&r).Elem(), &r, false)
	poison(reflect.ValueOf(&r.PerJob[0]).Elem(), &r, true)

	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "output.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	_, section, ok := strings.Cut(doc, "## Non-finite results")
	if ok {
		_, section, ok = strings.Cut(section, "A run whose")
	}
	if ok {
		section, _, ok = strings.Cut(section, "is not finite")
	}
	if !ok {
		t.Fatal(`docs/output.md has no "## Non-finite results" sentence "A run whose ... is not finite"`)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`([A-Za-z]+)`").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	for field := range checked {
		if !documented[field] {
			t.Errorf("nonFinite checks %s, which docs/output.md does not list", field)
		}
	}
	for field := range documented {
		if !checked[field] {
			t.Errorf("docs/output.md lists %s, which nonFinite does not check", field)
		}
	}
	if len(checked) == 0 {
		t.Fatal("nonFinite caught no poisoned field")
	}
}

// TestWriteFileAtomicSuccess: the destination appears with the full
// content and no temp droppings remain.
func TestWriteFileAtomicSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello\nworld\n"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello\nworld\n" {
		t.Errorf("content %q", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}
}

// TestWriteFileAtomicFailureLeavesOldFile: a failed export neither
// truncates nor replaces an existing destination, and the temp file is
// cleaned up.
func TestWriteFileAtomicFailureLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("previous complete export"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("mid-write failure")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial gar"))
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "previous complete export" {
		t.Errorf("destination clobbered: %q", data)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("temp file left behind: %v", entries)
	}
}

// TestAtomicFileStreaming: the long-lived streaming path (time-series
// CSV written during a sweep) — nothing at the destination until
// Commit, everything after, and Abort after Commit is a no-op.
func TestAtomicFileStreaming(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ts.csv")
	a, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Abort()
	a.Write([]byte("row1\n"))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("destination exists before Commit")
	}
	a.Write([]byte("row2\n"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	a.Abort() // must not remove the committed file
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "row1\nrow2\n" {
		t.Errorf("content %q", data)
	}
}

// TestAtomicFileAbort: abort leaves no destination and no temp file.
func TestAtomicFileAbort(t *testing.T) {
	dir := t.TempDir()
	a, err := CreateAtomic(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("doomed"))
	a.Abort()
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("files left behind: %v", entries)
	}
}
