package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchText = `goos: linux
goarch: amd64
pkg: dpsim/internal/cluster
BenchmarkClusterStep-8   	 1000000	      1200 ns/op	       0 B/op	       0 allocs/op
BenchmarkClusterStep-8   	 1000000	      1100 ns/op	       0 B/op	       0 allocs/op
BenchmarkSchedulerInvokeProbed-8   	  500000	      2100 ns/op	      64 B/op	       1 allocs/op
`

func run(t *testing.T, args []string, stdin string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = realMain(args, strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

func writeBaseline(t *testing.T, from string) string {
	t.Helper()
	code, out, stderr := run(t, nil, from)
	if code != 0 {
		t.Fatalf("baseline generation failed (%d): %s", code, stderr)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBaselineSameRunPasses(t *testing.T) {
	base := writeBaseline(t, benchText)
	code, _, stderr := run(t, []string{"-baseline", base}, benchText)
	if code != 0 {
		t.Fatalf("identical run should pass, got exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "2 benchmark(s) within allocs/op baseline") {
		t.Errorf("expected pass summary naming 2 benchmarks, got: %s", stderr)
	}
}

func TestBaselineRegressionFails(t *testing.T) {
	base := writeBaseline(t, benchText)
	regressed := strings.ReplaceAll(benchText,
		"0 B/op	       0 allocs/op", "32 B/op	       2 allocs/op")
	code, _, stderr := run(t, []string{"-baseline", base}, regressed)
	if code != 1 {
		t.Fatalf("regressed run should exit 1, got %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "BenchmarkClusterStep-8: 2 allocs/op > baseline 0") {
		t.Errorf("regression message should name the benchmark and values, got: %s", stderr)
	}
}

func TestBaselineUsesMinAcrossRuns(t *testing.T) {
	base := writeBaseline(t, benchText)
	// One noisy run above baseline but the min still matches: must pass.
	noisy := benchText + "BenchmarkClusterStep-8   	 1000000	      1300 ns/op	      16 B/op	       3 allocs/op\n"
	code, _, stderr := run(t, []string{"-baseline", base}, noisy)
	if code != 0 {
		t.Fatalf("min-across-runs should absorb a noisy run, got exit %d: %s", code, stderr)
	}
}

// TestRunBenchmarkAbsentFromBaselineFails: a benchmark the run produced
// but the baseline lacks (a new rung recorded in no baseline) fails both
// gates, named.
func TestRunBenchmarkAbsentFromBaselineFails(t *testing.T) {
	base := writeBaseline(t, benchText)
	extra := benchText + "BenchmarkBrandNew-8   	 1000	      9000 ns/op	     512 B/op	       9 allocs/op\n"
	code, _, stderr := run(t, []string{"-baseline", base, "-time-tolerance", "1"}, extra)
	if code != 1 {
		t.Fatalf("run with a benchmark absent from the baseline should exit 1, got %d: %s", code, stderr)
	}
	for _, want := range []string{
		"allocs/op regression: BenchmarkBrandNew-8: allocs/op in this run but not in the baseline",
		"ns/op regression: BenchmarkBrandNew-8: ns/op in this run but not in the baseline",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr should contain %q, got: %s", want, stderr)
		}
	}
}

// TestBaselineMissingBenchmarkFails: a baseline benchmark the run did not
// produce (a renamed rung, a -bench pattern typo) fails both gates, named.
func TestBaselineMissingBenchmarkFails(t *testing.T) {
	base := writeBaseline(t, benchText)
	renamed := strings.ReplaceAll(benchText, "BenchmarkSchedulerInvokeProbed-8", "BenchmarkSchedulerInvokeProbedRenamed-8")
	code, _, stderr := run(t, []string{"-baseline", base, "-time-tolerance", "1"}, renamed)
	if code != 1 {
		t.Fatalf("run missing a baseline benchmark should exit 1, got %d: %s", code, stderr)
	}
	for _, want := range []string{
		"allocs/op regression: BenchmarkSchedulerInvokeProbed-8: no allocs/op in this run",
		"ns/op regression: BenchmarkSchedulerInvokeProbed-8: no ns/op in this run",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr should contain %q, got: %s", want, stderr)
		}
	}
	// Without -benchmem the run has no allocs/op to gate: missing too.
	noMem := "BenchmarkClusterStep-8   	 1000000	      1100 ns/op\nBenchmarkSchedulerInvokeProbed-8   	  500000	      2100 ns/op\n"
	if code, _, stderr := run(t, []string{"-baseline", base}, noMem); code != 1 || !strings.Contains(stderr, "BenchmarkClusterStep-8: no allocs/op") {
		t.Errorf("run without allocs/op should fail the allocs gate, got exit %d: %s", code, stderr)
	}
}

func TestBaselineMissingFileFails(t *testing.T) {
	code, _, stderr := run(t, []string{"-baseline", filepath.Join(t.TempDir(), "nope.json")}, benchText)
	if code != 1 {
		t.Fatalf("missing baseline file should exit 1, got %d: %s", code, stderr)
	}
}

func TestTimeToleranceGate(t *testing.T) {
	base := writeBaseline(t, benchText)
	// Baseline min ns/op for ClusterStep is 1100. 20% slower than that is
	// 1320: a 1300 run passes at tol 0.2 but fails at tol 0.1.
	slower := strings.ReplaceAll(benchText, "1200 ns/op", "1300 ns/op")
	slower = strings.ReplaceAll(slower, "1100 ns/op", "1300 ns/op")
	code, _, stderr := run(t, []string{"-baseline", base, "-time-tolerance", "0.2"}, slower)
	if code != 0 {
		t.Fatalf("within tolerance should pass, got exit %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "within 0.2 ns/op tolerance") {
		t.Errorf("expected ns/op pass summary, got: %s", stderr)
	}
	code, _, stderr = run(t, []string{"-baseline", base, "-time-tolerance", "0.1"}, slower)
	if code != 1 {
		t.Fatalf("outside tolerance should exit 1, got %d: %s", code, stderr)
	}
	if !strings.Contains(stderr, "ns/op regression: BenchmarkClusterStep-8") {
		t.Errorf("regression message should name the benchmark, got: %s", stderr)
	}
	// Default (0) never gates on time, no matter how slow.
	crawl := strings.ReplaceAll(benchText, "1200 ns/op", "999999 ns/op")
	crawl = strings.ReplaceAll(crawl, "1100 ns/op", "999999 ns/op")
	if code, _, stderr := run(t, []string{"-baseline", base}, crawl); code != 0 {
		t.Fatalf("time gate must be opt-in, got exit %d: %s", code, stderr)
	}
	if code, _, _ := run(t, []string{"-time-tolerance", "-1"}, benchText); code != 2 {
		t.Error("negative tolerance should be a usage error")
	}
}

func TestTrendTable(t *testing.T) {
	dir := t.TempDir()
	old := writeTrendReport(t, dir, "BENCH_PR4.json", benchText)
	newer := writeTrendReport(t, dir, "BENCH_PR7.json", strings.ReplaceAll(
		benchText, "1100 ns/op", "900 ns/op")+
		"BenchmarkBrandNew-8   	 1000	      9000 ns/op	     512 B/op	       9 allocs/op\n")
	code, out, stderr := run(t, []string{"-trend", old, newer}, "")
	if code != 0 {
		t.Fatalf("trend failed (%d): %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("expected header + 3 benchmarks x 2 metrics = 7 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "BENCH_PR4") || !strings.Contains(lines[0], "BENCH_PR7") {
		t.Errorf("header should carry report labels: %q", lines[0])
	}
	var clusterNs, brandNew string
	for _, l := range lines {
		if strings.HasPrefix(l, "BenchmarkClusterStep-8") && strings.Contains(l, "ns/op") {
			clusterNs = l
		}
		if strings.HasPrefix(l, "BenchmarkBrandNew-8") && strings.Contains(l, "ns/op") {
			brandNew = l
		}
	}
	for _, want := range []string{"1100", "900"} {
		if !strings.Contains(clusterNs, want) {
			t.Errorf("ClusterStep ns/op row missing %s: %q", want, clusterNs)
		}
	}
	if !strings.Contains(brandNew, "-") {
		t.Errorf("benchmark absent from a report should show -: %q", brandNew)
	}

	if code, _, _ := run(t, []string{"-trend"}, ""); code != 2 {
		t.Error("-trend with no reports should be a usage error")
	}
	if code, _, _ := run(t, []string{"-trend", "-baseline", old, newer}, ""); code != 2 {
		t.Error("-trend with -baseline should be a usage error")
	}
	if code, _, _ := run(t, []string{"-trend", filepath.Join(dir, "nope.json")}, ""); code != 1 {
		t.Error("missing trend report should exit 1")
	}
}

func writeTrendReport(t *testing.T, dir, name, from string) string {
	t.Helper()
	code, out, stderr := run(t, nil, from)
	if code != 0 {
		t.Fatalf("report generation failed (%d): %s", code, stderr)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
