package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpsim/internal/appmodel"
	"dpsim/internal/cluster"
	"dpsim/internal/sched"
	"dpsim/internal/trace"
)

func baseSpec() *Spec {
	return &Spec{
		Name:       "test",
		Nodes:      []int{8},
		Schedulers: SchedulerList{{Name: "equipartition"}},
		Seed:       1,
		Jobs:       12,
		Mix: []MixSpec{
			{Kind: "synthetic", Phases: 3, WorkS: 30, Comm: 0.05},
		},
		Arrivals: ArrivalList{{Process: "poisson", MeanInterarrivalS: 5}},
	}
}

func TestParseSingleArrivalObject(t *testing.T) {
	spec, err := Parse([]byte(`{
		"name": "one",
		"nodes": [16],
		"seed": 3,
		"jobs": 4,
		"mix": [{"kind": "synthetic", "phases": 2, "work_s": 10}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Arrivals) != 1 || spec.Arrivals[0].Process != "poisson" {
		t.Fatalf("arrivals = %+v", spec.Arrivals)
	}
	// Defaults fill in.
	if !reflect.DeepEqual(spec.Loads, []float64{1}) {
		t.Fatalf("loads = %v", spec.Loads)
	}
	if len(spec.Schedulers) != len(sched.Names()) {
		t.Fatalf("schedulers = %v", spec.Schedulers)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*Spec){
		"no nodes":          func(s *Spec) { s.Nodes = nil },
		"bad node":          func(s *Spec) { s.Nodes = []int{0} },
		"bad load":          func(s *Spec) { s.Loads = []float64{-1} },
		"bad scheduler":     func(s *Spec) { s.Schedulers = SchedulerList{{Name: "nope"}} },
		"no arrivals":       func(s *Spec) { s.Arrivals = nil },
		"bad process":       func(s *Spec) { s.Arrivals[0].Process = "weird" },
		"poisson no mean":   func(s *Spec) { s.Arrivals[0].MeanInterarrivalS = 0 },
		"open unbounded":    func(s *Spec) { s.Jobs = 0 },
		"no mix":            func(s *Spec) { s.Mix = nil },
		"bad mix kind":      func(s *Spec) { s.Mix[0].Kind = "weird" },
		"synthetic no work": func(s *Spec) { s.Mix[0].WorkS = 0 },
		"lu r not dividing": func(s *Spec) { s.Mix[0] = MixSpec{Kind: "lu", N: 100, R: 33} },
		"diurnal amplitude": func(s *Spec) {
			s.Arrivals = ArrivalList{{Process: "diurnal", MeanInterarrivalS: 5, PeriodS: 100, Amplitude: 1.5}}
		},
		"bursty no dwell": func(s *Spec) {
			s.Arrivals = ArrivalList{{Process: "bursty", BurstInterarrivalS: 1, CalmInterarrivalS: 10}}
		},
		"trace no path": func(s *Spec) { s.Arrivals = ArrivalList{{Process: "trace"}} },
	}
	for name, mutate := range cases {
		s := baseSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// streamJobs materializes a stream for comparison.
func streamJobs(t *testing.T, s *Spec, arrivalIdx int, seed uint64) []*cluster.Job {
	t.Helper()
	st, err := s.Stream(arrivalIdx, s.Nodes[0], 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return st.Jobs()
}

func TestStreamDeterminism(t *testing.T) {
	spec := baseSpec()
	spec.Mix = []MixSpec{
		{Kind: "lu", Weight: 1},
		{Kind: "synthetic", Phases: 4, WorkS: 20, Comm: 0.1, CV: 0.5, Weight: 2},
		{Kind: "stencil", GridN: 648, Iterations: 6, Weight: 1},
	}
	for _, proc := range []ArrivalSpec{
		{Process: "closed"},
		{Process: "poisson", MeanInterarrivalS: 5},
		{Process: "bursty", BurstInterarrivalS: 1, CalmInterarrivalS: 20, BurstDwellS: 10, CalmDwellS: 50},
		{Process: "diurnal", MeanInterarrivalS: 5, PeriodS: 200, Amplitude: 0.8},
	} {
		spec.Arrivals = ArrivalList{proc}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", proc.Process, err)
		}
		a := streamJobs(t, spec, 0, 99)
		b := streamJobs(t, spec, 0, 99)
		if len(a) != spec.Jobs {
			t.Fatalf("%s: generated %d jobs, want %d", proc.Process, len(a), spec.Jobs)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different streams", proc.Process)
		}
		c := streamJobs(t, spec, 0, 100)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical streams", proc.Process)
		}
		for i, j := range a {
			if i > 0 && j.Arrival < a[i-1].Arrival {
				t.Fatalf("%s: arrivals not sorted at %d", proc.Process, i)
			}
			if j.MaxNodes < 1 || j.MaxNodes > spec.Nodes[0] {
				t.Fatalf("%s: job %d MaxNodes %d", proc.Process, i, j.MaxNodes)
			}
			if len(j.Phases) == 0 {
				t.Fatalf("%s: job %d has no phases", proc.Process, i)
			}
		}
	}
}

func TestClosedExplicitTimes(t *testing.T) {
	spec := baseSpec()
	spec.Jobs = 0
	spec.Arrivals = ArrivalList{{Process: "closed", Times: []float64{0, 1.5, 4}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs := streamJobs(t, spec, 0, 7)
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, want := range []float64{0, 1.5, 4} {
		if jobs[i].Arrival != want {
			t.Fatalf("job %d arrival %v, want %v", i, jobs[i].Arrival, want)
		}
	}
}

func TestLoadScalesArrivalRate(t *testing.T) {
	spec := baseSpec()
	spec.Jobs = 200
	st1, err := spec.Stream(0, 8, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := spec.Stream(0, 8, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := st1.Jobs(), st2.Jobs()
	// Double load halves the mean inter-arrival: the same seed's last
	// arrival lands at half the virtual time.
	r := j1[len(j1)-1].Arrival / j2[len(j2)-1].Arrival
	if math.Abs(r-2) > 1e-9 {
		t.Fatalf("load scaling ratio = %v, want 2", r)
	}
}

func TestHorizonCutsGeneration(t *testing.T) {
	spec := baseSpec()
	spec.Jobs = 10000
	spec.HorizonS = 50
	jobs := streamJobs(t, spec, 0, 5)
	if len(jobs) == 0 || len(jobs) >= 10000 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for _, j := range jobs {
		if j.Arrival > 50 {
			t.Fatalf("arrival %v past horizon", j.Arrival)
		}
	}
}

func TestTraceReplayStream(t *testing.T) {
	dir := t.TempDir()
	records := []trace.JobRecord{
		{ID: 0, Arrival: 0, MaxNodes: 4, Phases: []trace.PhaseRecord{{Work: 10, Comm: 0.1}}},
		{ID: 1, Arrival: 8, MaxNodes: 0, Phases: []trace.PhaseRecord{{Work: 6, Comm: 0}, {Work: 4, Comm: 0.2}}},
		{ID: 2, Arrival: 20, MaxNodes: 99, Phases: []trace.PhaseRecord{{Work: 3, Comm: 0.05}}},
	}
	f, err := os.Create(filepath.Join(dir, "jobs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJobs(f, records); err != nil {
		t.Fatal(err)
	}
	f.Close()

	spec := &Spec{
		Nodes:    []int{8},
		Seed:     1,
		Arrivals: ArrivalList{{Process: "trace", Path: "jobs.csv"}},
	}
	spec.dir = dir
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs := streamJobs(t, spec, 0, 42)
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	if jobs[1].Arrival != 8 || len(jobs[1].Phases) != 2 {
		t.Fatalf("job 1 = %+v", jobs[1])
	}
	// MaxNodes 0 and out-of-range clamp to the cluster size.
	if jobs[1].MaxNodes != 8 || jobs[2].MaxNodes != 8 {
		t.Fatalf("clamping: %d, %d", jobs[1].MaxNodes, jobs[2].MaxNodes)
	}
	// Load 2 compresses the trace's time axis.
	st, err := spec.Stream(0, 8, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	fast := st.Jobs()
	if fast[2].Arrival != 10 {
		t.Fatalf("scaled arrival = %v, want 10", fast[2].Arrival)
	}
}

func TestRunCellProducesSaneResults(t *testing.T) {
	spec := baseSpec()
	run, err := spec.RunCell(CellParams{
		Nodes: 8, Load: 1, ArrivalIdx: 0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Result.PerJob) != spec.Jobs {
		t.Fatalf("finished %d of %d jobs", len(run.Result.PerJob), spec.Jobs)
	}
	if run.Result.Makespan <= 0 || run.Result.Utilization <= 0 || run.Result.Utilization > 1+1e-9 {
		t.Fatalf("result = %+v", run.Result)
	}
	if len(run.Slowdowns) != spec.Jobs {
		t.Fatalf("slowdowns = %d", len(run.Slowdowns))
	}
	for i, s := range run.Slowdowns {
		if s < 1-1e-9 {
			t.Fatalf("slowdown[%d] = %v < 1", i, s)
		}
	}
	// Same cell, same seed: identical outcome.
	again, err := spec.RunCell(CellParams{
		Nodes: 8, Load: 1, ArrivalIdx: 0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, again) {
		t.Fatal("RunCell not deterministic")
	}
}

func TestRunCellMatchesClosedSim(t *testing.T) {
	// A closed batch driven through RunCell must match feeding the same
	// jobs to cluster.NewSim + Run directly.
	spec := baseSpec()
	spec.Jobs = 6
	spec.Arrivals = ArrivalList{{Process: "closed"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jobs := streamJobs(t, spec, 0, 3)
	sim, err := cluster.NewSim(8, sched.Equipartition{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run()
	if math.Abs(run.Result.Makespan-want.Makespan) > 1e-9 {
		t.Fatalf("makespan %v vs %v", run.Result.Makespan, want.Makespan)
	}
	if len(run.Result.PerJob) != len(want.PerJob) {
		t.Fatalf("%d finished jobs vs %d", len(run.Result.PerJob), len(want.PerJob))
	}
	for i, j := range run.Result.PerJob {
		if math.Abs(j.Response-want.PerJob[i].Response) > 1e-9 {
			t.Fatalf("job %d response %v vs %v", j.ID, j.Response, want.PerJob[i].Response)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	body := `{
		"name": "file",
		"nodes": [4, 8],
		"loads": [0.5, 1.0],
		"schedulers": ["rigid-fcfs", "efficiency-greedy"],
		"seed": 9,
		"jobs": 5,
		"mix": [{"kind": "stencil", "grid_n": 324, "iterations": 4}],
		"arrivals": [
			{"process": "closed"},
			{"process": "bursty", "burst_interarrival_s": 1, "calm_interarrival_s": 30,
			 "burst_dwell_s": 5, "calm_dwell_s": 60}
		]
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "file" || len(spec.Arrivals) != 2 || spec.dir != dir {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("bad json accepted")
	}
}

func TestArrivalLabels(t *testing.T) {
	if got := (ArrivalSpec{Process: "poisson"}).Label(); got != "poisson" {
		t.Fatalf("label = %q", got)
	}
	if got := (ArrivalSpec{Process: "trace", Path: "a/b/jobs.csv"}).Label(); got != "trace:jobs.csv" {
		t.Fatalf("label = %q", got)
	}
}

func TestStencilProfileShape(t *testing.T) {
	phases := MixSpec{Kind: "stencil", GridN: 648, Iterations: 5}.stencilPhases()
	if len(phases) != 5 {
		t.Fatalf("phases = %d", len(phases))
	}
	for _, ph := range phases {
		if ph.Work <= 0 || ph.Comm <= 0 {
			t.Fatalf("phase = %+v", ph)
		}
	}
	// Native mixes lower their comm-factor model onto Phase.Comm (the
	// inlined fast path); the value must match the registered "stencil"
	// model's curve.
	if want := appmodel.StencilComm(648, 0); phases[0].Comm != want {
		t.Fatalf("stencil comm = %g, want registered model's %g", phases[0].Comm, want)
	}
	// Bigger grids amortize the halo: comm factor must shrink.
	big := MixSpec{Kind: "stencil", GridN: 2592, Iterations: 1}.stencilPhases()
	if big[0].Comm >= phases[0].Comm {
		t.Fatalf("comm not shrinking with grid: %v vs %v", big[0].Comm, phases[0].Comm)
	}
}

func TestParseErrorsMentionContext(t *testing.T) {
	_, err := Parse([]byte(`{"nodes":[4],"seed":1,"jobs":2,"mix":[{"kind":"synthetic","phases":1,"work_s":1}],"arrivals":[{"process":"weird"}]}`))
	if err == nil || !strings.Contains(err.Error(), "arrivals[0]") {
		t.Fatalf("err = %v", err)
	}
}
