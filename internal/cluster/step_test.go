package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dpsim/internal/eventq"
	"dpsim/internal/sched"
)

// TestPoissonWorkloadDeterminism: the same seed must yield a bit-identical
// workload; a different seed must not.
func TestPoissonWorkloadDeterminism(t *testing.T) {
	a := PoissonWorkload(30, 16, 8, 42)
	b := PoissonWorkload(30, 16, 8, 42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].MaxNodes != b[i].MaxNodes {
			t.Fatalf("job %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if !reflect.DeepEqual(a[i].Phases, b[i].Phases) {
			t.Fatalf("job %d phases differ", i)
		}
	}
	c := PoissonWorkload(30, 16, 8, 43)
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrival sequences")
	}
}

// stepRun drives a Sim through the step primitives only and returns the
// summary — the open-loop path with nothing injected.
func stepRun(s *Sim) Result {
	for {
		if _, ok := s.PeekNextEventTime(); !ok {
			break
		}
		s.ProcessNextEvent()
	}
	return s.Result()
}

// TestStepPrimitivesReproduceRun: the stepped event loop must produce the
// exact Result that the monolithic Run produces for the same workload.
func TestStepPrimitivesReproduceRun(t *testing.T) {
	for _, name := range sched.Names() {
		// Fresh policy instances per sim: policies may hold per-run state.
		p1, err := sched.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := sched.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		wl1 := PoissonWorkload(25, 12, 6, 7)
		wl2 := PoissonWorkload(25, 12, 6, 7)
		s1, err := NewSim(12, p1, wl1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewSim(12, p2, wl2)
		if err != nil {
			t.Fatal(err)
		}
		r1 := s1.Run()
		r2 := stepRun(s2)
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s: stepped result differs from Run:\n%+v\nvs\n%+v", name, r1, r2)
		}
	}
}

// TestInjectMatchesClosedRun: feeding the same jobs through Inject as the
// simulation progresses must reproduce the closed run bit-for-bit.
func TestInjectMatchesClosedRun(t *testing.T) {
	closedJobs := PoissonWorkload(20, 8, 5, 11)
	openJobs := PoissonWorkload(20, 8, 5, 11)

	cs, err := NewSim(8, &sched.EfficiencyGreedy{}, closedJobs)
	if err != nil {
		t.Fatal(err)
	}
	want := cs.Run()

	os, err := NewSim(8, &sched.EfficiencyGreedy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		et, evOK := os.PeekNextEventTime()
		if i < len(openJobs) {
			at := eventq.Time(eventq.DurationOf(openJobs[i].Arrival))
			if !evOK || at <= et {
				if err := os.Inject(openJobs[i]); err != nil {
					t.Fatal(err)
				}
				i++
				continue
			}
		}
		if !evOK {
			break
		}
		os.ProcessNextEvent()
	}
	got := os.Result()
	if len(got.PerJob) != len(want.PerJob) {
		t.Fatalf("open run finished %d jobs, closed %d", len(got.PerJob), len(want.PerJob))
	}
	for i := range want.PerJob {
		if math.Abs(got.PerJob[i].Finish-want.PerJob[i].Finish) > 1e-9 {
			t.Fatalf("job %d finish %v (open) vs %v (closed)", i, got.PerJob[i].Finish, want.PerJob[i].Finish)
		}
	}
	if math.Abs(got.Makespan-want.Makespan) > 1e-9 {
		t.Fatalf("makespan %v vs %v", got.Makespan, want.Makespan)
	}
}

// TestInjectTieBreak: an arrival injected at exactly the instant of a
// pending internal event must behave as if it had been scheduled up
// front — the driver protocol injects on at <= next-event-time, so the
// arrival fires before the coinciding phase completion, exactly like a
// closed run where same-instant events fire in scheduling order (arrivals
// are scheduled first).
func TestInjectTieBreak(t *testing.T) {
	// Job 0: two 40-work-second phases on 8 nodes under equipartition →
	// its phase boundary fires at exactly t=5, and job 1 arrives at
	// exactly t=5 to collide with it.
	mkJobs := func() []*Job {
		a := singleJob(80, 2, 8) // two phases: boundary event at t=5
		b := singleJob(40, 1, 8)
		b.ID, b.Arrival = 1, 5 // collides with a's phase boundary
		return []*Job{a, b}
	}

	closed, err := NewSim(8, sched.Equipartition{}, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	want := closed.Run()

	open, err := NewSim(8, sched.Equipartition{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs := mkJobs()
	i := 0
	injectedAtTie := false
	for {
		et, evOK := open.PeekNextEventTime()
		if i < len(jobs) {
			at := eventq.Time(eventq.DurationOf(jobs[i].Arrival))
			if !evOK || at <= et {
				if evOK && at == et {
					injectedAtTie = true
				}
				if err := open.Inject(jobs[i]); err != nil {
					t.Fatal(err)
				}
				i++
				continue
			}
		}
		if !evOK {
			break
		}
		open.ProcessNextEvent()
	}
	if !injectedAtTie {
		t.Fatal("test did not exercise the tie: arrival never coincided with a pending event")
	}
	got := open.Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-broken open run differs from closed run:\n%+v\nvs\n%+v", got, want)
	}
}

// TestInjectRejectsPastArrival: injecting behind the clock is an error,
// not a silent causality violation.
func TestInjectRejectsPastArrival(t *testing.T) {
	j1 := singleJob(10, 2, 4)
	sim, err := NewSim(4, sched.Equipartition{}, []*Job{j1})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the run so the clock sits at the makespan.
	sim.Run()
	late := singleJob(10, 2, 4)
	late.ID = 1
	late.Arrival = 0.5
	if err := sim.Inject(late); err == nil {
		t.Fatal("past-arrival injection accepted")
	}
}

// TestInjectValidation mirrors NewSim's checks for open arrivals.
func TestInjectValidation(t *testing.T) {
	sim, err := NewSim(4, &sched.Rigid{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Inject(&Job{ID: 0}); err == nil {
		t.Fatal("phaseless job accepted")
	}
	big := singleJob(4, 1, 99)
	if err := sim.Inject(big); err != nil {
		t.Fatal(err)
	}
	if big.MaxNodes != 4 {
		t.Fatalf("MaxNodes not clamped: %d", big.MaxNodes)
	}
}

// phaseOrderProbe records the order of phase completions.
type phaseOrderProbe struct {
	invokeCountProbe
	done []string
}

func (p *phaseOrderProbe) PhaseDone(t float64, jobID, phase, phases int) {
	p.done = append(p.done, fmt.Sprintf("t=%g job %d", t, jobID))
}

// TestSameInstantCompletionsFireInIDOrder pins the tie order that keying
// each phase completion by its job ID preserves. Job A (ID 1, work 30)
// runs on 2 nodes, then on 4 from t=5, so its completion moves from
// t=15 to exactly t=10. Job B (ID 2, work 10) runs on 1 node throughout
// and completes at t=10, its completion never moving. Job C arrives at
// t=5 and waits, to force the pass. A fires before B, as when every pass
// gave every running job a fresh FIFO position in ID order: a pass that
// left B's completion where it was without the key would fire B first.
func TestSameInstantCompletionsFireInIDOrder(t *testing.T) {
	script := contractBreaker{name: "test-script", grant: func(st sched.State, out []int) {
		for i, v := range st.Active {
			switch v.Job.ID {
			case 1:
				out[i] = 2
				if st.Now >= 5 {
					out[i] = 4
				}
			case 2:
				out[i] = 1
			case 3:
				if len(st.Active) == 1 {
					out[i] = 1
				}
			}
		}
	}}
	job := func(id int, arrival, work float64) *Job {
		return &Job{ID: id, Arrival: arrival, Phases: []Phase{{Work: work}}, MaxNodes: 4}
	}
	sim, err := NewSim(5, script, []*Job{job(1, 0, 30), job(2, 0, 10), job(3, 5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	p := &phaseOrderProbe{}
	if err := sim.SetProbe(p); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	want := []string{"t=10 job 1", "t=10 job 2", "t=11 job 3"}
	if !slices.Equal(p.done, want) {
		t.Fatalf("phase completions %v, want %v", p.done, want)
	}
}
