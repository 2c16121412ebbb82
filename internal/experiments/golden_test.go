package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dpsim/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current engine")

// fingerprint renders a figure for byte comparison: the table as printed,
// then every sample in order with round-trip float formatting, so neither
// a last-bit drift nor a reordering of configurations hides behind the
// table's one-decimal cells.
func fingerprint(t *Table, samples []metrics.ErrorSample) string {
	var b strings.Builder
	b.WriteString(t.Render())
	for _, s := range samples {
		fmt.Fprintf(&b, "sample %s measured=%v predicted=%v\n", s.Label, s.Measured, s.Predicted)
	}
	return b.String()
}

// TestFig10QuickGolden pins the paper-lu benchmark workload's simulated
// results. testdata/fig10_quick.golden was recorded at the commit before
// PR 14 (map + sort.Slice reflow, Cancel + After per flow, sequential
// configurations); every later engine must reproduce it byte for byte.
func TestFig10QuickGolden(t *testing.T) {
	tb, samples, err := Fig10(quick())
	if err != nil {
		t.Fatal(err)
	}
	got := fingerprint(tb, samples)
	const path = "testdata/fig10_quick.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Fig10(quick) drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
