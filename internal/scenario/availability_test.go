package scenario

import (
	"strings"
	"testing"

	"dpsim/internal/rng"
)

// availSpec is a minimal two-axis availability scenario used across the
// tests below.
const availSpec = `{
	"name": "avail",
	"nodes": [8],
	"seed": 17,
	"jobs": 6,
	"mix": [{"kind": "synthetic", "phases": 3, "work_s": 60, "comm": 0.05}],
	"arrivals": {"process": "poisson", "mean_interarrival_s": 6},
	"availability": [
		{"process": "none"},
		{"process": "failures", "mttf_s": 25, "mttr_s": 15, "horizon_s": 1500}
	],
	"reconfig": {"redistribution_s_per_node": 0.1, "lost_work_s": 1}
}`

func TestParseAvailability(t *testing.T) {
	spec, err := Parse([]byte(availSpec))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Availability) != 2 {
		t.Fatalf("availability entries = %d, want 2", len(spec.Availability))
	}
	if spec.Availability[0].Label() != "none" || spec.Availability[1].Label() != "failures" {
		t.Fatalf("labels = %q, %q", spec.Availability[0].Label(), spec.Availability[1].Label())
	}
	if spec.Reconfig == nil || spec.Reconfig.LostWorkS != 1 {
		t.Fatalf("reconfig = %+v", spec.Reconfig)
	}
	// Defaults filled by validation.
	if spec.Availability[1].MinCapacity != 1 {
		t.Fatalf("min capacity default = %d", spec.Availability[1].MinCapacity)
	}
}

// TestParseAvailabilitySingleObject: like arrivals, a single object is
// accepted in place of an array.
func TestParseAvailabilitySingleObject(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "one",
		"nodes": [4],
		"seed": 1,
		"jobs": 2,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "closed"},
		"availability": {"process": "spot", "reclaim_mean_s": 100}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Availability) != 1 || spec.Availability[0].Process != "spot" {
		t.Fatalf("availability = %+v", spec.Availability)
	}
}

func TestParseAvailabilityRejectsBadSpecs(t *testing.T) {
	bad := []string{
		`"availability": {"process": "volcano"}`,
		`"availability": {"process": "failures", "mttf_s": 10}`,
		`"availability": {"process": "maintenance", "period_s": 5, "duration_s": 9, "nodes_down": 1}`,
		`"availability": {"process": "trace"}`,
		`"reconfig": {"lost_work_s": -1}`,
	}
	for _, frag := range bad {
		body := `{
			"name": "bad", "nodes": [4], "seed": 1, "jobs": 2,
			"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
			"arrivals": {"process": "closed"},
			` + frag + `}`
		if _, err := Parse([]byte(body)); err == nil {
			t.Fatalf("accepted %s", frag)
		}
	}
}

// TestUnknownSchedulerErrorListsNames: the satellite contract — a typo'd
// scheduler name gets the valid list back.
func TestUnknownSchedulerErrorListsNames(t *testing.T) {
	_, err := Parse([]byte(`{
		"name": "x", "nodes": [4], "seed": 1, "jobs": 2,
		"schedulers": ["equipartitionn"],
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "closed"}
	}`))
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, name := range []string{"rigid-fcfs", "moldable", "equipartition", "efficiency-greedy"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

// TestSchedulerNamesCaseInsensitiveInSpec: mixed-case scheduler names in
// scenario files and CLI overrides resolve to the canonical names.
func TestSchedulerNamesCaseInsensitiveInSpec(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "x", "nodes": [4], "seed": 1, "jobs": 2,
		"schedulers": ["Equipartition", "RIGID-FCFS"],
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 10}],
		"arrivals": {"process": "closed"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Schedulers[0].Name != "equipartition" || spec.Schedulers[1].Name != "rigid-fcfs" {
		t.Fatalf("schedulers not canonicalized: %+v", spec.Schedulers)
	}
	if err := spec.ApplyOverrides(Overrides{Schedulers: "RIGID-fcfs,Equipartition"}); err != nil {
		t.Fatal(err)
	}
	if spec.Schedulers[1].Name != "equipartition" {
		t.Fatalf("override not canonicalized: %+v", spec.Schedulers)
	}
	if _, err := spec.RunCell(CellParams{Nodes: 4, Load: 1, SchedulerIdx: 1, ArrivalIdx: 0, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCellAvailabilityAxis: the failures axis must perturb the
// results while the "none" axis reproduces the fixed pool, and the
// workload itself must not depend on which axis runs.
func TestRunCellAvailabilityAxis(t *testing.T) {
	spec, err := Parse([]byte(availSpec))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.ApplyOverrides(Overrides{Schedulers: "equipartition"}); err != nil {
		t.Fatal(err)
	}
	run := func(availIdx int) *CellRun {
		r, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, ArrivalIdx: 0, AvailIdx: availIdx, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	none, fail := run(0), run(1)
	if none.Result.CapacityEvents != 0 {
		t.Fatalf("none axis applied %d capacity events", none.Result.CapacityEvents)
	}
	if fail.Result.CapacityEvents == 0 {
		t.Fatal("failures axis applied no capacity events")
	}
	if none.Result.Makespan == fail.Result.Makespan {
		t.Fatal("failures did not perturb the makespan")
	}
	// Same seed ⇒ same job stream on both axes: arrivals must agree.
	if len(none.Result.PerJob) == 0 || len(fail.Result.PerJob) == 0 {
		t.Fatal("no finished jobs")
	}
	for i := range none.Result.PerJob {
		if i < len(fail.Result.PerJob) && none.Result.PerJob[i].Arrival != fail.Result.PerJob[i].Arrival {
			t.Fatalf("job %d arrival differs across availability axes: %g vs %g",
				i, none.Result.PerJob[i].Arrival, fail.Result.PerJob[i].Arrival)
		}
	}
	// Determinism: replays are bit-identical.
	again := run(1)
	if again.Result.Makespan != fail.Result.Makespan || again.Result.LostWorkS != fail.Result.LostWorkS {
		t.Fatal("availability replay not deterministic")
	}
}

// TestRunCellPullBudget: the availability budget counts the raw events a
// run pulls. A spec whose every event folds away (min_capacity is the
// whole pool, so no change is ever yielded) pulls past the budget at its
// first pull, and its run errors, naming the process. A spec over budget
// only over its whole horizon (8 nodes failing about once a second for
// 10^6 s, some 8·10^6 events) completes, since its run ends within
// minutes; Generate, which drains to the horizon, still fails on it.
func TestRunCellPullBudget(t *testing.T) {
	const base = `{
		"name": "budget",
		"nodes": [8],
		"seed": 3,
		"jobs": 6,
		"mix": [{"kind": "synthetic", "phases": 3, "work_s": 60, "comm": 0.05}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 6},
		"availability": [
			{"process": "failures", "mttf_s": 0.001, "mttr_s": 0.001, "min_capacity": 8},
			{"process": "failures", "mttf_s": 1, "mttr_s": 1, "horizon_s": 1000000}
		]
	}`
	spec, err := Parse([]byte(base))
	if err != nil {
		t.Fatal(err)
	}
	_, err = spec.RunCell(CellParams{Nodes: 8, Load: 1, AvailIdx: 0, Seed: 1})
	if want := "failures process exceeds 1048576 events before horizon 86400s"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("over-budget run: err = %v, want %q", err, want)
	}
	run, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, AvailIdx: 1, Seed: 1})
	if err != nil {
		t.Fatalf("run ending before the budget is pulled: %v", err)
	}
	if run.Result.Unfinished != 0 || run.Result.CapacityEvents == 0 {
		t.Fatalf("run: %d unfinished, %d capacity events; want 0 and some", run.Result.Unfinished, run.Result.CapacityEvents)
	}
	if _, err := spec.Availability[1].Generate(8, rng.New(1)); err == nil || !strings.Contains(err.Error(), "exceeds 1048576 events") {
		t.Fatalf("Generate over the whole horizon: err = %v, want the budget error", err)
	}
}
