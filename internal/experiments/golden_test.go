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

// figureGolden fingerprints a figure at the quick setup.
func figureGolden(fig func(Setup) (*Table, []metrics.ErrorSample, error)) func() (string, error) {
	return func() (string, error) {
		tb, samples, err := fig(quick())
		if err != nil {
			return "", err
		}
		return fingerprint(tb, samples), nil
	}
}

// tableGolden renders a prediction-only table at the quick setup.
func tableGolden(table func(Setup) (*Table, error)) func() (string, error) {
	return func() (string, error) {
		tb, err := table(quick())
		if err != nil {
			return "", err
		}
		return tb.Render(), nil
	}
}

// table1Golden keeps the cells of Table 1 that do not depend on the host:
// the two "Real application" rows and the analytic-durations prediction.
// The direct-execution and PDEXEC rows scale with this host's speed, and
// every wall and alloc column is a host measurement.
func table1Golden() (string, error) {
	tb, err := Table1(quick())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", tb.Title)
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], "Real application") || strings.Contains(row[0], "analytic durations") {
			fmt.Fprintf(&b, "%s  predicted=%s\n", row[0], row[3])
		}
	}
	return b.String(), nil
}

// TestFig10QuickGolden pins the simulated results of every experiment
// whose output does not depend on the host. testdata/fig10_quick.golden
// (the paper-lu benchmark workload) was recorded from the engine with
// the map + sort.Slice reflow, Cancel + After per flow and sequential
// configurations; the others from the harness with one hand-written
// engine set-up per run. Every later engine and harness must reproduce
// them byte for byte.
func TestFig10QuickGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig10_quick", figureGolden(Fig10)},
		{"fig8_quick", figureGolden(Fig8)},
		{"fig9_quick", figureGolden(Fig9)},
		{"fig11_quick", figureGolden(Fig11)},
		{"fig12_quick", figureGolden(Fig12)},
		{"ablations_quick", tableGolden(Ablations)},
		{"windows_quick", tableGolden(WindowSweep)},
		{"table1_quick", table1Golden},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			path := "testdata/" + c.name + ".golden"
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
				t.Fatalf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", c.name, path, got, want)
			}
		})
	}
}
