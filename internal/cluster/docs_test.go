package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerformanceDoc: docs/performance.md must stay in sync with the
// hot-path machinery it documents — the coalescing contract tests, the
// benchmark surface, the committed benchjson trajectory and the CI
// gates. The doc fails CI when any of these drift.
func TestPerformanceDoc(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "performance.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)

	// The contract is only as good as the tests pinning it: the doc must
	// name them (the test names are coupled to this package's test files,
	// the benchmark names to bench_test.go — renaming either without
	// updating the doc is exactly the drift this catches).
	for _, needle := range []string{
		// coalescing contract pins
		"TestCoalescingGolden",
		"TestSchedulerInvokePerDirtyInstant",
		"TestReallocationsCoalescedSemantics",
		"TestProcessNextEventZeroAllocBurstSteadyState",
		// capacity-cursor contract pins
		"TestCapacityCursorGolden",
		"TestCapacityQueueDepthBounded",
		"TestSuspendResumeAllocsIndependentOfTimeline",
		// benchmark surface
		"BenchmarkClusterStep/{fixed,volatile,burst}",
		"BenchmarkCapacityIdleCycle/changes-{100,2k,20k}",
		"BenchmarkClusterStepScale/active-{100,1k,10k}",
		"BenchmarkSchedulerInvokeScale/active-{100,1k,10k}",
		"BenchmarkSchedulerInvoke/<policy>",
		"BenchmarkSweepGrid",
		"events/sec",
		// eventq hot-path APIs
		"RescheduleAfter",
		"ProcessNextEvent",
		// profiling + CI gating workflow
		"-cpuprofile",
		"-time-tolerance",
		"benchjson -trend",
		"benchjson -baseline",
		"SchedulerInvoke",
		"Result.Reallocations",
	} {
		if !strings.Contains(doc, needle) {
			t.Errorf("docs/performance.md does not mention %q", needle)
		}
	}

	// Every committed benchmark baseline must appear in the trajectory
	// section — a future BENCH_PRn.json that is committed but not
	// documented (or gated) is drift.
	baselines, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(baselines) < 4 {
		t.Fatalf("expected at least 4 committed baselines, found %v", baselines)
	}
	for _, path := range baselines {
		name := filepath.Base(path)
		if !strings.Contains(doc, name) {
			t.Errorf("committed baseline %s is not mentioned in docs/performance.md", name)
		}
	}
}
