package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dpsim/internal/appmodel"
)

const appmodelSpecJSON = `{
	"name": "appmodel-axis",
	"nodes": [16],
	"seed": 42,
	"jobs": 12,
	"mix": [
		{"kind": "lu", "weight": 1},
		{"kind": "synthetic", "phases": 4, "work_s": 150, "comm": 0.05, "cv": 0.2, "weight": 1},
		{"kind": "stencil", "grid_n": 648, "iterations": 6, "weight": 1}
	],
	"arrivals": {"process": "poisson", "mean_interarrival_s": 8},
	"schedulers": ["equipartition"],
	"appmodels": ["mix", "amdahl(f=0.1)", {"name": "downey", "params": {"A": 12, "sigma": 0.5}}]
}`

// TestAppModelAxisParses: the appmodels block accepts bare names, spec
// strings and {"name","params"} objects, and labels round-trip as specs.
func TestAppModelAxisParses(t *testing.T) {
	spec, err := Parse([]byte(appmodelSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.AppModels) != 3 {
		t.Fatalf("appmodels = %d", len(spec.AppModels))
	}
	want := []string{"mix", "amdahl(f=0.1)", "downey(A=12,sigma=0.5)"}
	for i, w := range want {
		if got := spec.AppModels[i].Label(); got != w {
			t.Errorf("appmodels[%d].Label() = %q, want %q", i, got, w)
		}
	}
	if m, err := spec.AppModels[0].New(); m != nil || err != nil {
		t.Errorf("mix sentinel constructed %v, %v; want the nil native model", m, err)
	}
}

// TestAppModelOverrideChangesOutcome: an axis override must actually
// change the simulated timing (same seed, same workload, different
// speedup response), while the same cell twice stays bit-identical.
func TestAppModelOverrideChangesOutcome(t *testing.T) {
	spec, err := Parse([]byte(appmodelSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	runIdx := func(idx int) string {
		run, err := spec.RunCell(CellParams{Nodes: 16, Load: 1, AppModelIdx: idx, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", run.Result)
	}
	if runIdx(1) != runIdx(1) {
		t.Error("same appmodel cell not deterministic")
	}
	if runIdx(0) == runIdx(1) || runIdx(1) == runIdx(2) {
		t.Error("distinct appmodels produced identical results")
	}
}

// TestMixSentinelBitIdentical: selecting the "mix" axis entry, forcing
// the native baseline with AppModelIdx -1, an explicit "mix" override and
// running a spec with no appmodels block at all must all produce
// bit-identical results — the axis's zero point is exactly the historical
// simulator.
func TestMixSentinelBitIdentical(t *testing.T) {
	withAxis, err := Parse([]byte(appmodelSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	noAxis, err := Parse([]byte(strings.Replace(appmodelSpecJSON,
		`"appmodels": ["mix", "amdahl(f=0.1)", {"name": "downey", "params": {"A": 12, "sigma": 0.5}}]`,
		`"appmodels": []`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *Spec, p CellParams) string {
		p.Nodes, p.Load, p.Seed = 16, 1, s.Seed
		r, err := s.RunCell(p)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", r.Result)
	}
	base := run(noAxis, CellParams{})
	if got := run(withAxis, CellParams{AppModelIdx: 0}); got != base {
		t.Error("mix axis entry diverged from the axis-free baseline")
	}
	if got := run(withAxis, CellParams{AppModelIdx: -1}); got != base {
		t.Error("AppModelIdx -1 diverged from the axis-free baseline")
	}
	if err := withAxis.ApplyOverrides(Overrides{AppModels: "MIX"}); err != nil {
		t.Fatal(err)
	}
	if got := run(withAxis, CellParams{}); got != base {
		t.Error("explicit \"mix\" override diverged from the axis-free baseline")
	}
}

// TestAppModelSpecStringSelectsModel: -appmodels spec strings resolve
// like scheduler spec strings, and the same model from the scenario file
// or from an override is bit-identical.
func TestAppModelSpecStringSelectsModel(t *testing.T) {
	spec, err := Parse([]byte(appmodelSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := spec.RunCell(CellParams{Nodes: 16, Load: 1, AppModelIdx: 1, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	overridden, err := Parse([]byte(appmodelSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if err := overridden.ApplyOverrides(Overrides{AppModels: "amdahl(f=0.1)"}); err != nil {
		t.Fatal(err)
	}
	bySpec, err := overridden.RunCell(CellParams{Nodes: 16, Load: 1, Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", fromFile.Result) != fmt.Sprintf("%+v", bySpec.Result) {
		t.Error("scenario-file and spec-string selection diverged")
	}
	if err := overridden.ApplyOverrides(Overrides{AppModels: "amdahl(nope=1)"}); err == nil {
		t.Error("bad model spec accepted")
	}
	if _, err := spec.RunCell(CellParams{Nodes: 16, Load: 1, AppModelIdx: 7, Seed: 1}); err == nil {
		t.Error("out-of-range appmodel index accepted")
	}
}

// TestAppModelValidation: unknown names and parameterized sentinels must
// fail at Validate with the block's index in the message.
func TestAppModelValidation(t *testing.T) {
	bad := strings.Replace(appmodelSpecJSON, `"amdahl(f=0.1)"`, `"warp-drive"`, 1)
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "appmodels[1]") {
		t.Errorf("unknown model error = %v", err)
	}
	bad = strings.Replace(appmodelSpecJSON, `"appmodels": ["mix"`,
		`"appmodels": [{"name": "mix", "params": {"f": 1}}`, 1)
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "no parameters") {
		t.Errorf("parameterized mix error = %v", err)
	}
}

// TestParseAppModelList: the -appmodels list splitter is paren-aware and
// rejects empty entries.
func TestParseAppModelList(t *testing.T) {
	parse := func(arg string) (AppModelList, error) {
		spec, err := Parse([]byte(appmodelSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		err = spec.ApplyOverrides(Overrides{AppModels: arg})
		return spec.AppModels, err
	}
	list, err := parse("mix,amdahl(f=0.1),downey(A=8,sigma=2)")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[2].Label() != "downey(A=8,sigma=2)" {
		t.Fatalf("list = %+v", list)
	}
	for _, arg := range []string{" ", "mix,,fixed", "amdahl(f=0.1"} {
		if _, err := parse(arg); err == nil {
			t.Errorf("override %q accepted", arg)
		}
	}
	if list, err = parse("roofline(sat=4),fixed"); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Label() != "roofline(sat=4)" {
		t.Fatalf("override = %+v", list)
	}
	if _, err := parse("not-a-model"); err == nil {
		t.Error("override with unknown model accepted")
	}
}

// TestStreamAppModelMatchesPerJobOverride: the stream-level override
// (JobStream.SetAppModel) and the driver's per-job override are one
// helper, so they yield identical jobs — for cost-free comm-factor
// models, amdahl included (lowered onto Phase.Comm), and for models that
// ride along as Job.Model.
func TestStreamAppModelMatchesPerJobOverride(t *testing.T) {
	spec, err := Parse([]byte(appmodelSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"synthetic(comm=0.2)", "amdahl(f=0.1)", "roofline(sat=4)", "synthetic(comm=0.2,migrate_s=1)"} {
		name, params, err := appmodel.ParseSpec(label)
		if err != nil {
			t.Fatal(err)
		}
		m, err := appmodel.New(name, params)
		if err != nil {
			t.Fatal(err)
		}
		st, err := spec.Stream(0, 16, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		st.SetAppModel(m)
		got := st.Jobs()
		want := streamJobs(t, spec, 0, 5)
		for _, j := range want {
			applyModel(j, m)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stream-level and per-job override diverged", label)
		}
		lowered := got[0].Model == nil
		if wantLowered := label == "synthetic(comm=0.2)" || label == "amdahl(f=0.1)"; lowered != wantLowered {
			t.Errorf("%s: lowered onto Phase.Comm = %v, want %v", label, lowered, wantLowered)
		}
	}
}
