package scenario

import (
	"strings"
	"testing"
	"time"

	"dpsim/internal/sched"
)

// TestSchedulerBlockParsing: the schedulers axis accepts bare names,
// spec strings, parameterized objects and single entries,
// case-insensitively, and canonicalizes names for stable labels.
func TestSchedulerBlockParsing(t *testing.T) {
	spec, err := Parse([]byte(`{
		"nodes": [8], "seed": 1, "jobs": 2,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 1}],
		"arrivals": {"process": "closed"},
		"schedulers": [
			"EQUIPARTITION",
			{"name": "malleable-hysteresis", "params": {"epoch_s": 45, "min_delta": 2}},
			{"name": "moldable", "params": {"min_efficiency": 0.7}},
			"Malleable-Hysteresis(min_delta=2, epoch_s=45)"
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Schedulers) != 4 {
		t.Fatalf("schedulers = %+v", spec.Schedulers)
	}
	// A spec string — the label the exports print — is the same entry as
	// its object form.
	if got, want := spec.Schedulers[3].Label(), spec.Schedulers[1].Label(); got != want {
		t.Fatalf("spec-string entry label = %q, want %q", got, want)
	}
	if spec.Schedulers[0].Name != "equipartition" {
		t.Fatalf("name not canonicalized: %q", spec.Schedulers[0].Name)
	}
	if got := spec.Schedulers[1].Label(); got != "malleable-hysteresis(epoch_s=45,min_delta=2)" {
		t.Fatalf("label = %q", got)
	}
	// The label must resolve back to the identical policy spec.
	name, params, err := sched.ParseSpec(spec.Schedulers[1].Label())
	if err != nil || name != "malleable-hysteresis" || params["epoch_s"] != 45 || params["min_delta"] != 2 {
		t.Fatalf("label did not round-trip: %q %v %v", name, params, err)
	}

	// A single bare string works like a single arrival object.
	one, err := Parse([]byte(`{
		"nodes": [4], "seed": 1, "jobs": 1,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 1}],
		"arrivals": {"process": "closed"},
		"schedulers": "fair-share"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Schedulers) != 1 || one.Schedulers[0].Name != "fair-share" {
		t.Fatalf("single scheduler = %+v", one.Schedulers)
	}

	// A federation member's scheduler takes the same forms.
	fed, err := Parse([]byte(`{
		"seed": 1, "jobs": 1,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 1}],
		"arrivals": {"process": "closed"},
		"federation": {"clusters": [{"nodes": 4, "scheduler": "moldable(min_efficiency=0.7)"}]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := fed.Federation.Clusters[0].Scheduler.Label(); got != "moldable(min_efficiency=0.7)" {
		t.Fatalf("member scheduler label = %q", got)
	}
}

func TestSchedulerBlockRejections(t *testing.T) {
	base := `{"nodes": [4], "seed": 1, "jobs": 1,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": 1}],
		"arrivals": {"process": "closed"}, "schedulers": %s}`
	for name, block := range map[string]string{
		"unknown name":    `["no-such-policy"]`,
		"unknown param":   `[{"name": "equipartition", "params": {"bogus": 1}}]`,
		"bad param value": `[{"name": "malleable-hysteresis", "params": {"min_delta": 0}}]`,
		"empty name":      `[{"params": {"x": 1}}]`,
		"malformed spec":  `["moldable(min_efficiency="]`,
	} {
		if _, err := Parse([]byte(strings.Replace(base, "%s", block, 1))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJobWeightPlumbed: mix job_weight flows onto every generated job,
// defaulting to 1.
func TestJobWeightPlumbed(t *testing.T) {
	spec := baseSpec()
	spec.Mix = []MixSpec{{Kind: "synthetic", Phases: 2, WorkS: 10, JobWeight: 3}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, j := range streamJobs(t, spec, 0, 4) {
		if j.Weight != 3 {
			t.Fatalf("job weight = %v, want 3", j.Weight)
		}
	}
	spec = baseSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, j := range streamJobs(t, spec, 0, 4) {
		if j.Weight != 1 {
			t.Fatalf("default job weight = %v, want 1", j.Weight)
		}
	}
}

// TestHugeJobWeightRuns: a job_weight of 1e308 (valid JSON, which no
// check bounds above, and large enough that Nodes·w overflows) runs
// under fair-share like any other weight: the run ends and every job
// finishes.
func TestHugeJobWeightRuns(t *testing.T) {
	spec, err := Parse([]byte(`{
		"nodes": [8], "seed": 1, "jobs": 12, "schedulers": ["fair-share"],
		"mix": [{"kind": "synthetic", "phases": 3, "work_s": 30, "job_weight": 1e308},
		        {"kind": "synthetic", "phases": 2, "work_s": 20}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	var run *CellRun
	done := make(chan struct{})
	go func() { run, err = spec.RunCell(CellParams{Nodes: 8, Load: 1, Seed: 5}); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the run has not ended after 10 s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if r := run.Result; r.Unfinished != 0 || len(r.PerJob) != 12 {
		t.Fatalf("unfinished %d, %d outcomes", r.Unfinished, len(r.PerJob))
	}
}

// TestParseSchedulerListSplitting: a -schedulers override splits on
// top-level commas only, and rejects empty entries and malformed specs.
func TestParseSchedulerListSplitting(t *testing.T) {
	spec := baseSpec()
	if err := spec.ApplyOverrides(Overrides{
		Schedulers: "rigid-fcfs, malleable-hysteresis(epoch_s=45,min_delta=2) ,fair-share",
	}); err != nil {
		t.Fatal(err)
	}
	list := spec.Schedulers
	if len(list) != 3 {
		t.Fatalf("list = %+v", list)
	}
	if list[1].Name != "malleable-hysteresis" || list[1].Params["min_delta"] != 2 {
		t.Fatalf("parameterized entry = %+v", list[1])
	}
	for _, bad := range []string{" ", "rigid-fcfs,,fair-share", "rigid-fcfs,"} {
		err := baseSpec().ApplyOverrides(Overrides{Schedulers: bad})
		if err == nil || !strings.Contains(err.Error(), "empty scheduler spec") {
			t.Errorf("override %q: err = %v, want an empty-entry error", bad, err)
		}
	}
	for _, bad := range []string{"a(x=1", "a(x=y)"} {
		if err := baseSpec().ApplyOverrides(Overrides{Schedulers: bad}); err == nil {
			t.Errorf("override %q accepted", bad)
		}
	}
}

// TestRunCellWithParameterizedScheduler: label-form scheduler specs
// drive RunCell, and different parameters change the outcome while
// identical ones reproduce it.
func TestRunCellWithParameterizedScheduler(t *testing.T) {
	spec := baseSpec()
	spec.Jobs = 10
	if err := spec.ApplyOverrides(Overrides{Schedulers: "malleable-hysteresis(epoch_s=60,min_delta=4)," +
		"malleable-hysteresis(epoch_s=0,min_delta=1)"}); err != nil {
		t.Fatal(err)
	}
	cell := func(idx int) *CellRun {
		run, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, SchedulerIdx: idx, ArrivalIdx: 0, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	throttled := cell(0)
	free := cell(1)
	if throttled.Result.Reallocations >= free.Result.Reallocations {
		t.Fatalf("hysteresis did not bound churn: %d vs %d reallocations",
			throttled.Result.Reallocations, free.Result.Reallocations)
	}
	again := cell(0)
	if again.Result.Reallocations != throttled.Result.Reallocations {
		t.Fatal("parameterized cell not deterministic")
	}
}
