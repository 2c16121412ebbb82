package federation

import (
	"fmt"
	"strings"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
	"dpsim/internal/sched"
)

// drivePlain runs jobs through a bare cluster.Sim with the open-arrival
// step loop (the scenario.RunCell drive order: arrivals win ties).
func drivePlain(t *testing.T, sim *cluster.Sim, jobs []*cluster.Job) cluster.Result {
	t.Helper()
	next := 0
	for {
		et, evOK := sim.PeekNextEventTime()
		if next < len(jobs) {
			at := eventq.Time(eventq.DurationOf(jobs[next].Arrival))
			if !evOK || at <= et {
				if err := sim.Inject(jobs[next]); err != nil {
					t.Fatal(err)
				}
				next++
				continue
			}
		}
		if !evOK {
			break
		}
		sim.ProcessNextEvent()
	}
	return sim.Result()
}

// driveFed runs the same jobs through a federation with the identical
// drive order, offering each arrival to admission + routing and
// delivering the admitted ones.
func driveFed(t *testing.T, fed *Sim, jobs []*cluster.Job) cluster.Result {
	t.Helper()
	next := 0
	for {
		et, evOK := fed.PeekNextEventTime()
		if next < len(jobs) {
			at := eventq.Time(eventq.DurationOf(jobs[next].Arrival))
			if !evOK || at <= et {
				offer(t, fed, jobs[next])
				next++
				continue
			}
		}
		if !evOK {
			break
		}
		fed.ProcessNextEvent()
	}
	return fed.Merged()
}

// offer runs one arrival through Offer and, when admitted, InjectInto.
func offer(t *testing.T, fed *Sim, j *cluster.Job) {
	t.Helper()
	idx, admitted, err := fed.Offer(j)
	if err == nil && admitted {
		err = fed.InjectInto(idx, j)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func mustPolicies(t *testing.T, admission, router string) (Admission, Router) {
	t.Helper()
	a, err := NewAdmission(admission, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(router, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, r
}

// volatileTimeline is the shared capacity schedule for the volatile
// golden: a noticed reclaim, an abrupt drop, and a restoration.
func volatileTimeline(nodes int) []availability.Change {
	return []availability.Change{
		{At: 15, Capacity: nodes / 2, NoticeS: 4},
		{At: 40, Capacity: nodes / 4},
		{At: 70, Capacity: nodes},
	}
}

// TestSingleClusterGolden is the zero-drift pin of the federated tier:
// a 1-cluster federation under always-admit + round-robin must produce
// a Result byte-identical to the plain cluster.Sim path — for every
// registered scheduler, under both fixed and volatile capacity. Merged
// returns the sole member's Result verbatim, so any divergence here
// means the orchestrator perturbed the member's event sequence.
func TestSingleClusterGolden(t *testing.T) {
	const nodes = 12
	for _, volatile := range []bool{false, true} {
		label := "fixed"
		if volatile {
			label = "volatile"
		}
		for _, name := range sched.Names() {
			name, volatile := name, volatile
			t.Run(label+"/"+name, func(t *testing.T) {
				build := func() (*cluster.Sim, []*cluster.Job) {
					policy, err := sched.New(name, nil)
					if err != nil {
						t.Fatal(err)
					}
					sim, err := cluster.NewSim(nodes, policy, nil)
					if err != nil {
						t.Fatal(err)
					}
					if volatile {
						if err := sim.SetCapacityChanges(volatileTimeline(nodes)); err != nil {
							t.Fatal(err)
						}
					}
					// Regenerate the workload for each side: deterministic
					// generation stands in for sharing job pointers.
					return sim, cluster.PoissonWorkload(16, nodes, 4, 42)
				}

				plainSim, plainJobs := build()
				want := fmt.Sprintf("%+v", drivePlain(t, plainSim, plainJobs))

				fedMember, fedJobs := build()
				a, r := mustPolicies(t, "always", "round-robin")
				fed, err := NewSim([]Member{{Name: "c0", Sim: fedMember}}, a, r)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%+v", driveFed(t, fed, fedJobs))
				if got != want {
					t.Errorf("1-cluster federation diverged from plain cluster path:\n got %s\nwant %s", got, want)
				}
				if fed.Rejected() != 0 || fed.Admitted() != len(fedJobs) {
					t.Errorf("always-admit counters: admitted %d rejected %d, want %d/0",
						fed.Admitted(), fed.Rejected(), len(fedJobs))
				}
			})
		}
	}
}

// TestMergedConservation drives a heterogeneous 2-cluster federation and
// checks the merged result's structural accounting against the members.
func TestMergedConservation(t *testing.T) {
	p1, err := sched.New("equipartition", nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sched.New("rigid-fcfs", nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := cluster.NewSim(8, p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cluster.NewSim(16, p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.SetCapacityChanges(volatileTimeline(16)); err != nil {
		t.Fatal(err)
	}
	a, r := mustPolicies(t, "always", "least-loaded")
	fed, err := NewSim([]Member{{Name: "a", Sim: s1}, {Name: "b", Sim: s2}}, a, r)
	if err != nil {
		t.Fatal(err)
	}
	jobs := cluster.PoissonWorkload(24, 8, 3, 7)
	merged := driveFed(t, fed, jobs)

	routed := fed.Routed()
	if routed[0]+routed[1] != len(jobs) {
		t.Fatalf("routed %v, want sum %d", routed, len(jobs))
	}
	if routed[0] == 0 || routed[1] == 0 {
		t.Fatalf("least-loaded sent everything one way: %v", routed)
	}
	results := fed.Results()
	finished, unfinished := 0, 0
	for i, res := range results {
		if len(res.PerJob)+res.Unfinished != routed[i] {
			t.Errorf("member %d: %d finished + %d unfinished != %d routed",
				i, len(res.PerJob), res.Unfinished, routed[i])
		}
		finished += len(res.PerJob)
		unfinished += res.Unfinished
	}
	if len(merged.PerJob) != finished || merged.Unfinished != unfinished {
		t.Errorf("merged accounting: %d finished %d unfinished, members say %d/%d",
			len(merged.PerJob), merged.Unfinished, finished, unfinished)
	}
	for i := 1; i < len(merged.PerJob); i++ {
		if merged.PerJob[i-1].ID >= merged.PerJob[i].ID {
			t.Fatalf("merged PerJob not ID-sorted at %d: %d >= %d", i, merged.PerJob[i-1].ID, merged.PerJob[i].ID)
		}
	}
	if merged.Makespan < results[0].Makespan || merged.Makespan < results[1].Makespan {
		t.Errorf("merged makespan %g below member makespans %g/%g",
			merged.Makespan, results[0].Makespan, results[1].Makespan)
	}
	if merged.Utilization <= 0 || merged.Utilization > 1 {
		t.Errorf("merged utilization %g out of (0,1]", merged.Utilization)
	}

	// On fixed pools the available capacity is the full pools, so the two
	// utilizations are one quotient, bit for bit, although each member's
	// own makespan falls short of the fleet's.
	fixed := make([]Member, 2)
	for i, p := range []sched.Scheduler{p1, p2} {
		sim, err := cluster.NewSim(8*(i+1), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		fixed[i] = Member{Name: fmt.Sprint(i), Sim: sim}
	}
	a, r = mustPolicies(t, "always", "round-robin")
	if fed, err = NewSim(fixed, a, r); err != nil {
		t.Fatal(err)
	}
	merged = driveFed(t, fed, cluster.PoissonWorkload(24, 8, 3, 7))
	if results := fed.Results(); results[0].Makespan == results[1].Makespan {
		t.Fatalf("members share makespan %g; the check needs them to differ", results[0].Makespan)
	}
	if merged.Utilization <= 0 || merged.AvailWeightedUtilization != merged.Utilization {
		t.Errorf("fixed-pool fleet: avail-weighted utilization %g, utilization %g; want equal",
			merged.AvailWeightedUtilization, merged.Utilization)
	}
}

func TestNewSimValidation(t *testing.T) {
	a, r := mustPolicies(t, "always", "round-robin")
	p, _ := sched.New("equipartition", nil)
	sim, _ := cluster.NewSim(4, p, nil)

	if _, err := NewSim(nil, a, r); err == nil || !strings.Contains(err.Error(), "no members") {
		t.Errorf("empty members: %v", err)
	}
	if _, err := NewSim([]Member{{Name: "x"}}, a, r); err == nil || !strings.Contains(err.Error(), "nil Sim") {
		t.Errorf("nil member sim: %v", err)
	}
	if _, err := NewSim([]Member{{Name: "x", Sim: sim}}, nil, r); err == nil || !strings.Contains(err.Error(), "admission") {
		t.Errorf("nil admission: %v", err)
	}
	if _, err := NewSim([]Member{{Name: "x", Sim: sim}}, a, nil); err == nil || !strings.Contains(err.Error(), "routing") {
		t.Errorf("nil router: %v", err)
	}
}

func TestDispatchErrors(t *testing.T) {
	a, r := mustPolicies(t, "always", "round-robin")
	p, _ := sched.New("equipartition", nil)
	sim, _ := cluster.NewSim(4, p, nil)
	fed, err := NewSim([]Member{{Name: "x", Sim: sim}}, a, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Offer(nil); err == nil || !strings.Contains(err.Error(), "nil job") {
		t.Errorf("nil job: %v", err)
	}
	j := &cluster.Job{ID: 0, Arrival: 5, Phases: []cluster.Phase{{Work: 1}}, MaxNodes: 2}
	if err := fed.InjectInto(3, j); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range member: %v", err)
	}
	offer(t, fed, j)
	// The shared clock now sits at t=5; injecting an earlier arrival
	// must be refused.
	early := &cluster.Job{ID: 1, Arrival: 1, Phases: []cluster.Phase{{Work: 1}}, MaxNodes: 2}
	if err := fed.InjectInto(0, early); err == nil || !strings.Contains(err.Error(), "regresses") {
		t.Errorf("clock regression: %v", err)
	}
}
