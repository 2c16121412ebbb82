package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpsim/internal/obs"
)

const observeScenario = `{
  "name": "observe-test",
  "nodes": [8],
  "seed": 7,
  "jobs": 6,
  "schedulers": ["equipartition", "rigid-fcfs"],
  "mix": [{"kind": "synthetic", "phases": 3, "work_s": 40, "comm": 0.05}],
  "arrivals": {"process": "poisson", "mean_interarrival_s": 10},
  "availability": {"process": "spot", "reclaim_mean_s": 60, "reclaim_nodes": 2, "restore_mean_s": 30, "horizon_s": 600},
  "reconfig": {"redistribution_s_per_node": 0.05, "lost_work_s": 1},
  "observe": {"sample_dt_s": 2, "max_spans": 512}
}`

// TestObserveBlockParses: the observe block round-trips through Parse
// with its knobs intact.
func TestObserveBlockParses(t *testing.T) {
	spec, err := Parse([]byte(observeScenario))
	if err != nil {
		t.Fatal(err)
	}
	o := spec.Observe
	if o == nil {
		t.Fatal("observe block dropped")
	}
	if o.SampleDTS != 2 || o.MaxSpans != 512 {
		t.Errorf("observe = %+v", o)
	}
	cfg := o.RecorderConfig("equipartition")
	if cfg.Label != "equipartition" || cfg.MaxSpans != 512 {
		t.Errorf("recorder config = %+v", cfg)
	}
}

// TestObserveValidationNamesKeys: every invalid observe field must be
// rejected with an error naming its JSON key.
func TestObserveValidationNamesKeys(t *testing.T) {
	cases := []struct{ block, key string }{
		{`{"sample_dt_s": -1}`, "observe.sample_dt_s"},
		{`{"max_samples": -1}`, "observe.max_samples"},
		{`{"max_spans": -1}`, "observe.max_spans"},
		{`{"max_events": -1}`, "observe.max_events"},
	}
	for _, c := range cases {
		data := `{"nodes":[4],"seed":1,"jobs":1,` +
			`"mix":[{"kind":"synthetic","phases":1,"work_s":1}],` +
			`"arrivals":{"process":"closed"},"observe":` + c.block + `}`
		_, err := Parse([]byte(data))
		if err == nil {
			t.Errorf("block %s accepted", c.block)
			continue
		}
		if !strings.Contains(err.Error(), c.key) {
			t.Errorf("block %s rejected without naming %s: %v", c.block, c.key, err)
		}
	}
}

// TestRunCellProbeIdentity pins the observer-effect-free contract at the
// scenario layer: running a cell with the recorder and sampler attached
// must produce a CellRun deeply identical to the unobserved run, while
// the recorder actually captures the run.
func TestRunCellProbeIdentity(t *testing.T) {
	spec, err := Parse([]byte(observeScenario))
	if err != nil {
		t.Fatal(err)
	}
	for idx := range spec.Schedulers {
		p := CellParams{Nodes: 8, Load: 1, SchedulerIdx: idx, Seed: 99}
		bare, err := spec.RunCell(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(spec.Observe.RecorderConfig(spec.Schedulers[idx].Label()))
		p.Probe = rec
		probed, err := spec.RunCell(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%s: probe changed the CellRun:\nbare:   %+v\nprobed: %+v",
				spec.Schedulers[idx].Label(), bare.Result, probed.Result)
		}
		sum := rec.Summarize()
		if sum.Arrived == 0 || sum.Samples == 0 || len(rec.Spans()) == 0 {
			t.Errorf("%s: recorder captured nothing: %+v", spec.Schedulers[idx].Label(), sum)
		}
	}
}

// TestRunCellSampleOverride: RunCell samples at the observe block's
// interval, where dpssweep writes its -sample-dt; a finer grid than the
// scenario's yields strictly more samples.
func TestRunCellSampleOverride(t *testing.T) {
	spec, err := Parse([]byte(observeScenario))
	if err != nil {
		t.Fatal(err)
	}
	coarse := obs.NewRecorder(obs.Config{})
	if _, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, Seed: 5, Probe: coarse}); err != nil {
		t.Fatal(err)
	}
	spec.Observe.SampleDTS = 0.5
	fine := obs.NewRecorder(obs.Config{})
	if _, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, Seed: 5, Probe: fine}); err != nil {
		t.Fatal(err)
	}
	if len(fine.Samples()) <= len(coarse.Samples()) {
		t.Errorf("fine grid %d samples, coarse %d", len(fine.Samples()), len(coarse.Samples()))
	}
}

// TestSampleDTResolution: the resolver orders observe block → fallback,
// and a scenario whose block holds an interval the simulator would never
// sample at is rejected at load, naming the key.
func TestSampleDTResolution(t *testing.T) {
	observed, err := Parse([]byte(observeScenario))
	if err != nil {
		t.Fatal(err)
	}
	bare := &Spec{}
	for _, tc := range []struct {
		spec           *Spec
		fallback, want float64
	}{
		{observed, 1, 2},
		{observed, 0, 2},
		{bare, 1, 1},
		{bare, 0, 0},
		{&Spec{Observe: &ObserveSpec{}}, 1, 1},
	} {
		if got := tc.spec.SampleDT(tc.fallback); got != tc.want {
			t.Errorf("SampleDT(%g) = %g; want %g", tc.fallback, got, tc.want)
		}
	}
	bad := strings.Replace(observeScenario, `"sample_dt_s": 2`, `"sample_dt_s": -5`, 1)
	if _, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "observe.sample_dt_s") {
		t.Errorf("a negative sample_dt_s loaded: %v", err)
	}
}

// TestMemberProbesCountRoutedJobs: with one recorder per member cluster,
// each member's summary counts exactly the jobs routing delivered to it,
// and arrivals plus rejections account for the whole workload — the
// per-member view dpssweep -summary-out exports for a federated cell.
func TestMemberProbesCountRoutedJobs(t *testing.T) {
	spec, err := Load(filepath.Join("..", "..", "examples", "scenarios", "federated_volatile.json"))
	if err != nil {
		t.Fatal(err)
	}
	f := spec.Federation
	for ai := range f.Admissions {
		for ri := range f.Routings {
			recs := make([]*obs.Recorder, len(f.Clusters))
			p := CellParams{Nodes: spec.Nodes[0], Load: spec.Loads[0], AdmissionIdx: ai, RoutingIdx: ri, Seed: spec.Seed}
			for m := range recs {
				recs[m] = obs.NewRecorder(obs.Config{})
				p.MemberProbes = append(p.MemberProbes, recs[m])
			}
			run, err := spec.RunCell(p)
			if err != nil {
				t.Fatal(err)
			}
			arrived := run.Rejected
			for m, rec := range recs {
				if got := rec.Summarize().Arrived; got != run.Routed[m] {
					t.Errorf("pair %d/%d member %s: %d arrivals recorded, %d routed", ai, ri, f.Clusters[m].Name, got, run.Routed[m])
				}
				arrived += rec.Summarize().Arrived
			}
			if arrived != spec.Jobs {
				t.Errorf("pair %d/%d: arrivals + rejections = %d, want %d jobs", ai, ri, arrived, spec.Jobs)
			}
		}
	}
}
