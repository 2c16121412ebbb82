// Satellite regression tests for the sweep-layer bugfixes that shipped
// with the shard/resume/dedup engine: duplicate axis labels on every
// axis, fail-fast dispatch, empty-cell extremes, and the dedup
// invariance + telemetry contracts.
package sweep

import (
	"strings"
	"testing"

	"dpsim/internal/telemetry"
)

// TestDuplicateSchedulerAndAppModelLabelsDisambiguated: the
// availability axis already suffixed duplicate labels with #idx; the
// scheduler and appmodel axes silently exported colliding rows.
func TestDuplicateSchedulerAndAppModelLabelsDisambiguated(t *testing.T) {
	spec := parseSpec(t, `{
		"name": "duplabels",
		"nodes": [4],
		"schedulers": ["equipartition", "equipartition", "rigid-fcfs"],
		"appmodels": ["amdahl(f=0.1)", "amdahl(f=0.1)"],
		"seed": 3,
		"jobs": 2,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "closed"}
	}`)
	cells := Cells(spec)
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	scheds := map[string]bool{}
	models := map[string]bool{}
	for _, c := range cells {
		scheds[c.Scheduler] = true
		models[c.AppModel] = true
	}
	for _, want := range []string{"equipartition#0", "equipartition#1", "rigid-fcfs"} {
		if !scheds[want] {
			t.Errorf("scheduler label %q missing; got %v", want, scheds)
		}
	}
	if scheds["equipartition"] {
		t.Error("undecorated duplicate scheduler label survived")
	}
	for _, want := range []string{"amdahl(f=0.1)#0", "amdahl(f=0.1)#1"} {
		if !models[want] {
			t.Errorf("appmodel label %q missing; got %v", want, models)
		}
	}
}

// TestRunFailFast: after the first error, the dispatcher must stop
// handing out runs instead of grinding through the rest of the grid.
func TestRunFailFast(t *testing.T) {
	spec := parseSpec(t, `{
		"name": "failfast",
		"nodes": [4],
		"loads": [0.25, 0.5, 0.75, 1.0],
		"schedulers": ["equipartition", "rigid-fcfs"],
		"seed": 5,
		"jobs": 3,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 3}
	}`)
	// Force every run to fail the same way TestMetricsErroredRuns does.
	// Observation keeps all 8 cells executable: with both scheduler
	// entries renamed to the same broken name, dedup would halve the grid.
	spec.Schedulers[0].Name = "no-such-policy"
	spec.Schedulers[1].Name = "no-such-policy"
	executed := 0
	total := 0
	_, err := Run(spec, Options{
		Replications: 4, Workers: 1, Observe: observeNone,
		Progress: func(done, t int) { executed = done; total = t },
	})
	if err == nil {
		t.Fatal("expected an error from the broken schedulers")
	}
	if total != 8*4 {
		t.Fatalf("total = %d, want 32", total)
	}
	// With one worker, at most the failing run plus one in-flight run
	// execute before the dispatcher sees the error and stops.
	if executed > 2 {
		t.Fatalf("executed %d runs after the first error; fail-fast broken", executed)
	}
}

// TestEmptyCellExtremes: a cell whose replications complete zero jobs
// has no response-time extremes; they must export as empty CSV fields
// and JSON nulls, not as a fake 0.
func TestEmptyCellExtremes(t *testing.T) {
	a := &cellAccum{}
	st := a.stats(Cell{Scheduler: "equipartition", Arrival: "closed", Avail: "none", AppModel: "mix", Nodes: 4, Load: 1}, 2)
	if st.MinResponse != nil || st.MaxResponse != nil {
		t.Fatalf("empty cell extremes = %v, %v; want nil", st.MinResponse, st.MaxResponse)
	}
	var csvB, jsonB strings.Builder
	if err := WriteCSV(&csvB, "empty", []CellStats{st}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonB, "empty", []CellStats{st}); err != nil {
		t.Fatal(err)
	}
	csvOut, jsonOut := csvB.String(), jsonB.String()
	rows := strings.Split(strings.TrimRight(csvOut, "\n"), "\n")
	if len(rows) != 2 || !strings.HasSuffix(rows[1], ",,") {
		t.Fatalf("empty extremes should render as trailing empty CSV fields: %q", rows[1])
	}
	if !strings.Contains(jsonOut, `"min_response_s": null`) ||
		!strings.Contains(jsonOut, `"max_response_s": null`) {
		t.Fatalf("empty extremes should render as JSON nulls:\n%s", jsonOut)
	}
}

// TestDedupLeavesExportsByteIdentical is the dedup contract: skipping
// identical cells and fanning results out must never change a byte of
// the exported aggregates, only the amount of work executed. An
// observed sweep, which gives every cell its own unit, is the baseline.
func TestDedupLeavesExportsByteIdentical(t *testing.T) {
	spec := dupSpec(t) // duplicate "equipartition" axis entry
	const reps = 3
	var dedupTotal, fullTotal int
	deduped, err := Run(spec, Options{Replications: reps,
		Progress: func(done, total int) { dedupTotal = total }})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(spec, Options{Replications: reps, Observe: observeNone,
		Progress: func(done, total int) { fullTotal = total }})
	if err != nil {
		t.Fatal(err)
	}
	if dedupTotal >= fullTotal {
		t.Fatalf("dedup executed %d runs, the observed sweep %d — nothing was deduplicated", dedupTotal, fullTotal)
	}
	// 12 cells, 4 of which duplicate another: 8 unique cells execute.
	if want := 8 * reps; dedupTotal != want {
		t.Fatalf("dedup executed %d runs, want %d", dedupTotal, want)
	}
	dCSV, dJSON := exportBoth(t, spec, deduped)
	fCSV, fJSON := exportBoth(t, spec, full)
	if dCSV != fCSV {
		t.Fatalf("dedup changed the CSV export\n%s\nvs\n%s", dCSV, fCSV)
	}
	if dJSON != fJSON {
		t.Fatal("dedup changed the JSON export")
	}
}

// TestObserveDisablesDedup: per-run observation callbacks see every
// cell, so dedup must quietly stand down when Observe is attached.
func TestObserveDisablesDedup(t *testing.T) {
	spec := dupSpec(t)
	total := 0
	_, err := Run(spec, Options{
		Replications: 1,
		Observe:      observeNone,
		Progress:     func(done, t int) { total = t },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Cells(spec)); total != want {
		t.Fatalf("with Observe attached, executed %d runs, want every cell (%d)", total, want)
	}
}

// TestPlanGauges: the dedup/resume planning gauges report the cells
// skipped and restored.
func TestPlanGauges(t *testing.T) {
	spec := dupSpec(t)
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg, 1)
	if _, err := Run(spec, Options{Replications: 1, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	// 12 cells, 4 duplicates of another entry.
	if got := m.cellsDeduped.Value(); got != 4 {
		t.Errorf("cells_deduped = %g, want 4", got)
	}
	if got := m.cellsResumed.Value(); got != 0 {
		t.Errorf("cells_resumed = %g, want 0", got)
	}
}
