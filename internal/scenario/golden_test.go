package scenario

import (
	"strings"
	"testing"
)

// Golden values produced by the scenario layer BEFORE the availability
// subsystem existed (PR 1 state), %.17g. A scenario with no availability
// block and no reconfig block must reproduce them bit-for-bit through
// RunCell — the whole declarative path, not just the simulator core —
// and the extraction of the policies into internal/sched (PR 3) must be
// bit-invisible too, which is why every scheduler is resolved by name
// through the registry here (a CLI-style -schedulers override).
var goldenCells = []struct {
	scheduler                       string
	makespan, utilization, slowdown float64
}{
	{"rigid-fcfs", 282.99615706600002, 0.58125731054403462, 62.872780381944168},
	{"moldable", 285.36779609600001, 0.57642658842675942, 64.245563099193717},
	{"equipartition", 252.60591229600001, 0.65118659993091987, 46.859591713070238},
	{"efficiency-greedy", 249.90429024100001, 0.65822633533761199, 41.32079512033517},

	// The four policies below shipped with the sched extraction (PR 3);
	// their goldens pin the implementations at introduction.
	{"easy-backfill", 328.32044223999998, 0.5010153617855958, 53.589689830105023},
	{"sjf-moldable", 313.53699291599997, 0.52463852389676402, 71.399594236921828},
	{"fair-share", 249.90429024100001, 0.65822633533761199, 40.553466956245387},
	{"malleable-hysteresis", 324.79856625100001, 0.50644800267794876, 53.18770764183401},
}

const goldenSpec = `{
	"name": "golden",
	"nodes": [16],
	"seed": 99,
	"jobs": 18,
	"mix": [
		{"kind": "lu", "weight": 1},
		{"kind": "synthetic", "phases": 5, "work_s": 180, "comm": 0.04, "cv": 0.3, "weight": 2}
	],
	"arrivals": {"process": "poisson", "mean_interarrival_s": 8}
}`

func TestGoldenScenarioBackwardCompat(t *testing.T) {
	spec, err := Parse([]byte(goldenSpec))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(goldenCells))
	for i, want := range goldenCells {
		names[i] = want.scheduler
	}
	if err := spec.ApplyOverrides(Overrides{Schedulers: strings.Join(names, ",")}); err != nil {
		t.Fatal(err)
	}
	for i, want := range goldenCells {
		run, err := spec.RunCell(CellParams{Nodes: 16, Load: 1, SchedulerIdx: i, ArrivalIdx: 0, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		r := run.Result
		var sd float64
		for _, s := range run.Slowdowns {
			sd += s
		}
		if r.Makespan != want.makespan {
			t.Errorf("%s: makespan %.17g, golden %.17g", want.scheduler, r.Makespan, want.makespan)
		}
		if r.Utilization != want.utilization {
			t.Errorf("%s: utilization %.17g, golden %.17g", want.scheduler, r.Utilization, want.utilization)
		}
		if sd != want.slowdown {
			t.Errorf("%s: slowdown sum %.17g, golden %.17g", want.scheduler, sd, want.slowdown)
		}
	}
}
