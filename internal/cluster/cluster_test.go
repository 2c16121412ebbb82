package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dpsim/internal/lu"
	"dpsim/internal/sched"
)

func TestPhaseEfficiency(t *testing.T) {
	ph := Phase{Work: 10, Comm: 0.1}
	if ph.Efficiency(1) != 1 {
		t.Fatalf("eff(1) = %v", ph.Efficiency(1))
	}
	if e := ph.Efficiency(2); math.Abs(e-1/1.1) > 1e-12 {
		t.Fatalf("eff(2) = %v", e)
	}
	if ph.Efficiency(0) != 0 {
		t.Fatal("eff(0) != 0")
	}
	// Rate grows sublinearly but monotonically.
	prev := 0.0
	for p := 1; p <= 16; p++ {
		r := ph.Rate(p)
		if r <= prev {
			t.Fatalf("rate not increasing at p=%d", p)
		}
		prev = r
	}
}

func TestLUProfileShape(t *testing.T) {
	phases := LUProfile(2592, 324, lu.DefaultCostModel())
	if len(phases) != 8 {
		t.Fatalf("phases = %d", len(phases))
	}
	for k := 1; k < len(phases); k++ {
		if phases[k].Work >= phases[k-1].Work {
			t.Fatalf("work not decreasing at phase %d", k)
		}
		if phases[k].Comm < phases[k-1].Comm {
			t.Fatalf("comm factor not growing at phase %d", k)
		}
	}
}

func singleJob(work float64, phases, maxNodes int) *Job {
	return &Job{ID: 0, Phases: SyntheticProfile(phases, work, 0), MaxNodes: maxNodes}
}

func TestSingleJobPerfectSpeedup(t *testing.T) {
	job := singleJob(40, 4, 4)
	sim, err := NewSim(4, sched.Equipartition{}, []*Job{job})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	// 40s serial / 4 perfectly parallel nodes = 10s.
	if math.Abs(res.Makespan-10) > 1e-6 {
		t.Fatalf("makespan = %v, want 10", res.Makespan)
	}
	if math.Abs(res.PerJob[0].Response-10) > 1e-6 {
		t.Fatalf("response = %v", res.PerJob[0].Response)
	}
	if math.Abs(res.Utilization-1) > 1e-6 {
		t.Fatalf("utilization = %v", res.Utilization)
	}
}

func TestRigidQueuesJobs(t *testing.T) {
	// Two jobs each requesting all 4 nodes: the second waits.
	j1 := singleJob(40, 2, 4)
	j2 := singleJob(40, 2, 4)
	j2.ID = 1
	sim, err := NewSim(4, &sched.Rigid{}, []*Job{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if math.Abs(res.Makespan-20) > 1e-6 {
		t.Fatalf("rigid makespan = %v, want 20", res.Makespan)
	}
	if math.Abs(res.PerJob[1].Finish-20) > 1e-6 {
		t.Fatalf("second job finished at %v", res.PerJob[1].Finish)
	}
}

func TestEquipartitionSharesNodes(t *testing.T) {
	j1 := singleJob(20, 2, 4)
	j2 := singleJob(20, 2, 4)
	j2.ID = 1
	sim, err := NewSim(4, sched.Equipartition{}, []*Job{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	// Both get 2 nodes: each needs 10s, concurrently → makespan 10.
	if math.Abs(res.Makespan-10) > 1e-6 {
		t.Fatalf("equipartition makespan = %v, want 10", res.Makespan)
	}
}

func TestEfficiencyGreedyPrefersEfficientJob(t *testing.T) {
	// Job A parallelizes perfectly; job B saturates quickly.
	a := &Job{ID: 0, Phases: []Phase{{Work: 30, Comm: 0}}, MaxNodes: 8}
	b := &Job{ID: 1, Phases: []Phase{{Work: 30, Comm: 0.8}}, MaxNodes: 8}
	sim, err := NewSim(8, &sched.EfficiencyGreedy{}, []*Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	eq, err := NewSim(8, sched.Equipartition{}, []*Job{{ID: 0, Phases: []Phase{{Work: 30, Comm: 0}}, MaxNodes: 8}, {ID: 1, Phases: []Phase{{Work: 30, Comm: 0.8}}, MaxNodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	eqRes := eq.Run()
	if meanResponse(res) >= meanResponse(eqRes) {
		t.Fatalf("efficiency-greedy (%v) not better than equipartition (%v)",
			meanResponse(res), meanResponse(eqRes))
	}
}

// meanResponse is the mean response of a run's finished jobs.
func meanResponse(r Result) float64 {
	var sum float64
	for _, j := range r.PerJob {
		sum += j.Response
	}
	return sum / float64(len(r.PerJob))
}

func TestDynamicReallocationOnDeparture(t *testing.T) {
	// A short job departs; the survivor should absorb its nodes and
	// finish sooner than with a static split.
	long := singleJob(40, 4, 4)
	short := singleJob(8, 2, 4)
	short.ID = 1
	sim, err := NewSim(4, sched.Equipartition{}, []*Job{long, short})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	// Static halves: long would take 20s. With reallocation after the
	// short job's 4s, it must beat that.
	if res.PerJob[0].Finish >= 20 {
		t.Fatalf("malleable long job finished at %v, want < 20", res.PerJob[0].Finish)
	}
}

// runEveryPolicy runs the same PoissonWorkload under every registered
// policy (default parameters), regenerating it per run so no two runs
// share a job.
func runEveryPolicy(t *testing.T, jobs, nodes int, meanInterarrival float64, seed uint64) map[string]Result {
	out := map[string]Result{}
	for _, name := range sched.Names() {
		policy, err := sched.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(nodes, policy, PoissonWorkload(jobs, nodes, meanInterarrival, seed))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sim.Run()
	}
	return out
}

func TestCompareOrdersSchedulers(t *testing.T) {
	byName := runEveryPolicy(t, 12, 16, 20, 99)
	for name, r := range byName {
		if len(r.PerJob) != 12 {
			t.Fatalf("%s finished %d of 12 jobs", name, len(r.PerJob))
		}
	}
	rigid := byName["rigid-fcfs"]
	greedy := byName["efficiency-greedy"]
	// The efficiency-aware malleable scheduler must beat rigid FCFS on
	// mean response time (the paper's motivation: dynamic allocation
	// increases the cluster's service rate).
	if meanResponse(greedy) >= meanResponse(rigid) {
		t.Fatalf("greedy response %v >= rigid %v", meanResponse(greedy), meanResponse(rigid))
	}
	if greedy.Utilization <= 0 || greedy.Utilization > 1 {
		t.Fatalf("utilization = %v", greedy.Utilization)
	}
}

func TestAllJobsFinishProperty(t *testing.T) {
	prop := func(seed uint64, jobsRaw, nodesRaw uint8) bool {
		jobs := int(jobsRaw%10) + 1
		nodes := int(nodesRaw%12) + 2
		for _, r := range runEveryPolicy(t, jobs, nodes, 5, seed) {
			if len(r.PerJob) != jobs {
				return false
			}
			for _, j := range r.PerJob {
				if j.Finish < j.Arrival {
					return false
				}
			}
			if r.Utilization <= 0 || r.Utilization > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(0, &sched.Rigid{}, nil); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewSim(4, nil, nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := NewSim(4, &sched.Rigid{}, []*Job{{ID: 0}}); err == nil {
		t.Fatal("phaseless job accepted")
	}
}

// TestIntakeRejectsNonFiniteWeight: a NaN or infinite fair-share weight
// is refused by name at both entry paths, NewSim and Inject; a huge
// finite one is accepted (sched.FairShare scales it).
func TestIntakeRejectsNonFiniteWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		job := &Job{ID: 3, Phases: SyntheticProfile(1, 10, 0), Weight: w}
		_, err := NewSim(4, &sched.FairShare{}, []*Job{job})
		if err == nil || !strings.Contains(err.Error(), "job 3 has fair-share weight") {
			t.Errorf("NewSim with weight %v: err = %v", w, err)
		}
		sim, err := NewSim(4, &sched.FairShare{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Inject(job); err == nil || !strings.Contains(err.Error(), "job 3 has fair-share weight") {
			t.Errorf("Inject with weight %v: err = %v", w, err)
		}
	}
	jobs := []*Job{
		{ID: 0, Phases: SyntheticProfile(1, 10, 0), Weight: math.MaxFloat64},
		{ID: 1, Phases: SyntheticProfile(1, 10, 0), Weight: 1e308},
	}
	sim, err := NewSim(8, &sched.FairShare{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res := sim.Run(); res.Unfinished != 0 || len(res.PerJob) != 2 {
		t.Fatalf("huge finite weights: %+v", res)
	}
}

func TestMoldableHoldsAllocation(t *testing.T) {
	job := &Job{ID: 0, Phases: SyntheticProfile(3, 30, 0.2), MaxNodes: 8}
	sim, err := NewSim(8, &sched.Moldable{}, []*Job{job})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if len(res.PerJob) != 1 || res.PerJob[0].Finish <= 0 {
		t.Fatalf("moldable run: %+v", res)
	}
}

// twoSevens is two ID-7 jobs on a 4-node pool under equipartition: the
// first (work 10, MaxNodes 2) finishes at t=5, the second (work 100,
// MaxNodes 2) arrives at t=second.
func twoSevens(t *testing.T, second float64) *Sim {
	t.Helper()
	jobs := []*Job{
		{ID: 7, Phases: SyntheticProfile(1, 10, 0), MaxNodes: 2},
		{ID: 7, Arrival: second, Phases: SyntheticProfile(1, 100, 0), MaxNodes: 2},
	}
	policy, err := sched.New("equipartition", nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(4, policy, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestDuplicateActiveIDPanics: a job arriving while another job with its
// ID is still active panics, naming the ID, instead of taking the other
// job's place in the active list (where the first job's completion would
// drop it, leaving it to run on nodes the pool no longer counts).
func TestDuplicateActiveIDPanics(t *testing.T) {
	sim := twoSevens(t, 1)
	defer func() {
		if r := recover(); r != nil && !strings.Contains(fmt.Sprint(r), "job 7 ") {
			t.Fatalf("panic %q does not name job 7", r)
		}
	}()
	res := sim.Run()
	t.Fatalf("the run completed: %+v", res.PerJob)
}

// TestReusedIDAfterFinish: an ID may be reused once its first job has
// finished.
func TestReusedIDAfterFinish(t *testing.T) {
	res := twoSevens(t, 6).Run()
	if res.Unfinished != 0 || len(res.PerJob) != 2 || res.PerJob[1].Finish != 56 {
		t.Fatalf("two sequential ID-7 jobs: %+v", res)
	}
}
