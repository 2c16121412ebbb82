package sched

import (
	"slices"
	"testing"

	"dpsim/internal/rng"
)

// mkJob builds a uniform-phase job for policy-level tests.
func mkJob(id int, arrival, work float64, phases, maxNodes int, comm float64) *Job {
	phs := make([]Phase, phases)
	for i := range phs {
		phs[i] = Phase{Work: work / float64(phases), Comm: comm}
	}
	return &Job{ID: id, Arrival: arrival, Phases: phs, MaxNodes: maxNodes}
}

// fresh resolves a policy by name, failing the test on error.
func fresh(t *testing.T, name string) Scheduler {
	t.Helper()
	s, err := New(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allocate adapts the buffer contract for test readability: it runs one
// Allocate pass into a fresh zeroed buffer and returns the result keyed
// by job ID.
func allocate(s Scheduler, st State) map[int]int {
	st.Held = heldOf(st.Active)
	out := make([]int, len(st.Active))
	s.Allocate(st, out)
	m := make(map[int]int, len(out))
	for i, a := range out {
		m[st.Active[i].Job.ID] = a
	}
	return m
}

// heldOf is State.Held for active: the ascending indices of the jobs
// holding nodes.
func heldOf(active []JobState) []int {
	var held []int
	for i := range active {
		if active[i].Alloc > 0 {
			held = append(held, i)
		}
	}
	return held
}

// TestAllocationContractOnRandomStates: for random states, every
// registered policy's allocations are non-negative, per-job ≤ MaxNodes,
// and sum ≤ nodes.
func TestAllocationContractOnRandomStates(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		src := rng.New(seed)
		nodes := 2 + src.Intn(14)
		st := State{Nodes: nodes, Now: src.Uniform(0, 100)}
		njobs := 1 + src.Intn(9)
		for i := 0; i < njobs; i++ {
			js := JobState{Job: mkJob(i, src.Uniform(0, 50), src.Uniform(1, 60), 1+src.Intn(4), 1+src.Intn(nodes), src.Uniform(0, 0.5))}
			js.Job.Weight = src.Uniform(0.2, 4)
			js.Remaining = js.Job.Phases[0].Work
			if src.Float64() < 0.5 {
				js.Alloc = 1 + src.Intn(js.Job.MaxNodes)
			}
			st.Active = append(st.Active, js)
		}
		// Random pre-states can over-commit (as after a capacity drop with
		// preserved allocations); policies only guarantee the contract when
		// handed a feasible state, so clamp like the simulator's
		// preemption pass does.
		total := 0
		for i := range st.Active {
			total += st.Active[i].Alloc
		}
		for i := len(st.Active) - 1; i >= 0 && total > st.Nodes; i-- {
			total -= st.Active[i].Alloc
			st.Active[i].Alloc = 0
		}
		st.Held = heldOf(st.Active)
		for _, name := range Names() {
			out := make([]int, len(st.Active))
			fresh(t, name).Allocate(st, out)
			got := 0
			for i, a := range out {
				js := st.Active[i]
				if a < 0 {
					t.Fatalf("%s: negative allocation %d for job %d (seed %d)", name, a, js.Job.ID, seed)
				}
				if a > js.Job.MaxNodes {
					t.Fatalf("%s: job %d got %d > MaxNodes %d (seed %d)", name, js.Job.ID, a, js.Job.MaxNodes, seed)
				}
				got += a
			}
			if got > st.Nodes {
				t.Fatalf("%s: allocated %d of %d nodes (seed %d)", name, got, st.Nodes, seed)
			}
		}
	}
}

func TestMoldablePicksEfficientAllocation(t *testing.T) {
	// A job that saturates quickly must get a small start allocation.
	st := State{Nodes: 16, Active: []JobState{
		{Job: &Job{ID: 0, Arrival: 0, Phases: []Phase{{Work: 10, Comm: 0.5}}, MaxNodes: 16}},
		{Job: &Job{ID: 1, Arrival: 1, Phases: []Phase{{Work: 10, Comm: 0}}, MaxNodes: 8}},
	}}
	alloc := allocate(&Moldable{}, st)
	// comm=0.5: eff(2)=1/1.5=0.67, eff(3)=0.5, eff(4)=0.4 → picks 3.
	if alloc[0] != 3 {
		t.Fatalf("saturating job got %d nodes, want 3", alloc[0])
	}
	// perfectly parallel job takes its full request
	if alloc[1] != 8 {
		t.Fatalf("parallel job got %d nodes, want 8", alloc[1])
	}
}

// TestEasyBackfillReservation: a long lower-priority job that fits the
// free nodes must NOT backfill when running it would delay the blocked
// queue head's reservation — the difference between EASY and the
// unrestricted backfilling of rigid-fcfs.
func TestEasyBackfillReservation(t *testing.T) {
	running := JobState{Job: mkJob(0, 0, 40, 1, 6, 0), PhaseIdx: 0, Remaining: 40, Alloc: 6}
	// Running on 6 of 10 nodes, perfectly parallel: finishes in 40/6 ≈ 6.7s.
	head := JobState{Job: mkJob(1, 1, 50, 1, 8, 0), Remaining: 50} // needs 8 > 4 free
	long := JobState{Job: mkJob(2, 2, 400, 1, 4, 0), Remaining: 400}
	short := JobState{Job: mkJob(3, 3, 4, 1, 4, 0), Remaining: 4}
	st := State{Nodes: 10, Active: []JobState{running, head, long, short}}

	alloc := allocate(&EasyBackfill{}, st)
	if alloc[1] != 0 {
		t.Fatalf("blocked head got %d nodes", alloc[1])
	}
	// long on 4 nodes runs 100s, far past the ~6.7s shadow, and its 4
	// nodes intrude on the head's reservation (extra = 10-8 = 2 < 4).
	if alloc[2] != 0 {
		t.Fatalf("reservation-violating job backfilled with %d nodes", alloc[2])
	}
	// short on 4 nodes runs 1s < shadow: backfills even though it
	// arrived after long.
	if alloc[3] != 4 {
		t.Fatalf("short candidate got %d nodes, want 4", alloc[3])
	}
	// Rigid's unrestricted backfill admits long — proving EASY's
	// reservation is what held it back.
	rigid := allocate(&Rigid{}, st)
	if rigid[2] != 4 {
		t.Fatalf("rigid admitted %d nodes for the long job, want 4", rigid[2])
	}
}

// TestEasyBackfillSamePassAdmissionHoldsReservation: a job admitted in
// the SAME Allocate pass (snapshot Alloc still 0) must count toward the
// head's reservation with its granted width — otherwise the shadow
// degenerates to +Inf and long jobs backfill unrestricted.
func TestEasyBackfillSamePassAdmissionHoldsReservation(t *testing.T) {
	// 8 nodes, all waiting: A (4 nodes, 40 work) is admitted FCFS and
	// will release its 4 nodes at ~10s; head B (8 nodes) blocks; C (2
	// nodes, 4000 work ⇒ 2000s) would sit on nodes B needs at the
	// shadow, far past it.
	a := JobState{Job: mkJob(0, 0, 40, 1, 4, 0), Remaining: 40}
	b := JobState{Job: mkJob(1, 1, 50, 1, 8, 0), Remaining: 50}
	c := JobState{Job: mkJob(2, 2, 4000, 1, 2, 0), Remaining: 4000}
	st := State{Nodes: 8, Active: []JobState{a, b, c}}
	alloc := allocate(&EasyBackfill{}, st)
	if alloc[0] != 4 {
		t.Fatalf("FCFS admission got %d nodes, want 4", alloc[0])
	}
	if alloc[1] != 0 {
		t.Fatalf("blocked head got %d nodes", alloc[1])
	}
	if alloc[2] != 0 {
		t.Fatalf("long job backfilled %d nodes across the head's reservation", alloc[2])
	}
	// A short job in C's place (finishes before the ~10s shadow) may
	// backfill. The snapshot is value-typed: update the copy in Active.
	c.Job.Phases[0].Work = 4
	st.Active[2].Remaining = 4
	if got := allocate(&EasyBackfill{}, st)[2]; got != 2 {
		t.Fatalf("short candidate got %d nodes, want 2", got)
	}
}

// TestEasyBackfillAdmitsFCFSWhenFree: with room for everyone the policy
// is plain FCFS at full width.
func TestEasyBackfillAdmitsFCFSWhenFree(t *testing.T) {
	st := State{Nodes: 12, Active: []JobState{
		{Job: mkJob(0, 0, 10, 1, 4, 0), Remaining: 10},
		{Job: mkJob(1, 1, 10, 1, 4, 0), Remaining: 10},
		{Job: mkJob(2, 2, 10, 1, 4, 0), Remaining: 10},
	}}
	alloc := allocate(&EasyBackfill{}, st)
	for id := 0; id < 3; id++ {
		if alloc[id] != 4 {
			t.Fatalf("job %d got %d nodes, want 4", id, alloc[id])
		}
	}
}

// TestSJFOrdersByRemainingWork: the short job is admitted ahead of a
// longer job that arrived earlier.
func TestSJFOrdersByRemainingWork(t *testing.T) {
	long := JobState{Job: mkJob(0, 0, 500, 1, 8, 0), Remaining: 500}
	short := JobState{Job: mkJob(1, 5, 5, 1, 8, 0), Remaining: 5}
	st := State{Nodes: 8, Active: []JobState{long, short}}
	alloc := allocate(&SJFMoldable{}, st)
	if alloc[1] == 0 {
		t.Fatal("short job not admitted")
	}
	// Whatever is left goes to the long job only if it fits its width.
	if alloc[0] != 0 && alloc[0]+alloc[1] > 8 {
		t.Fatalf("over-allocated: %v", alloc)
	}
	// Moldable admits FCFS instead: the long job first.
	fcfs := allocate(&Moldable{}, st)
	if fcfs[0] == 0 {
		t.Fatal("moldable skipped the FCFS head")
	}
}

// TestFairShareWeights: a weight-2 job gets twice the nodes of weight-1
// jobs, and surplus from capped jobs flows to the others.
func TestFairShareWeights(t *testing.T) {
	heavy := JobState{Job: mkJob(0, 0, 100, 1, 12, 0), Remaining: 100}
	heavy.Job.Weight = 2
	light1 := JobState{Job: mkJob(1, 0, 100, 1, 12, 0), Remaining: 100}
	light2 := JobState{Job: mkJob(2, 0, 100, 1, 12, 0), Remaining: 100}
	st := State{Nodes: 12, Active: []JobState{heavy, light1, light2}}
	alloc := allocate(&FairShare{}, st)
	if alloc[0] != 6 || alloc[1] != 3 || alloc[2] != 3 {
		t.Fatalf("weighted shares = %v, want 6/3/3", alloc)
	}

	// Cap the heavy job at 4: its surplus must flow to the others.
	heavy.Job.MaxNodes = 4
	alloc = allocate(&FairShare{}, st)
	if alloc[0] != 4 || alloc[0]+alloc[1]+alloc[2] != 12 {
		t.Fatalf("cap redistribution = %v", alloc)
	}

	// Unweighted jobs split evenly, like equipartition.
	heavy.Job.MaxNodes = 12
	heavy.Job.Weight = 0
	alloc = allocate(&FairShare{}, st)
	if alloc[0] != 4 || alloc[1] != 4 || alloc[2] != 4 {
		t.Fatalf("uniform shares = %v, want 4/4/4", alloc)
	}
}

// TestFairShareDefaultWeightsMatchEquipartition: when every job has the
// default weight (−1, 0 and 1 all mean 1) and no cap binds (MaxNodes ≥
// ⌈Nodes/N⌉), fair-share grants exactly what equipartition grants. The
// random states include pools that N divides and pools smaller than N,
// which must occur.
func TestFairShareDefaultWeightsMatchEquipartition(t *testing.T) {
	f := &FairShare{} // one instance: scratch reuse across passes
	wide := 0
	const states = 2000
	for seed := uint64(0); seed < states; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn([]int{4, 64, 1500}[src.Intn(3)])
		nodes := 1 + src.Intn(3*n)
		if n > nodes {
			wide++
		}
		least := (nodes + n - 1) / n
		st := State{Nodes: nodes, Active: make([]JobState, n)}
		for i := range st.Active {
			j := mkJob(i, 0, 10, 1, least+src.Intn(nodes-least+1), 0)
			j.Weight = []float64{-1, 0, 1}[src.Intn(3)]
			st.Active[i] = JobState{Job: j, Remaining: 10}
		}
		got, want := make([]int, n), make([]int, n)
		f.Allocate(st, got)
		Equipartition{}.Allocate(st, want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d (%d jobs, %d nodes): fair-share %v, equipartition %v", seed, n, nodes, got, want)
		}
	}
	if wide == 0 || wide == states {
		t.Fatalf("%d of %d states had more jobs than nodes: both kinds must occur", wide, states)
	}
}

// TestHysteresisThrottlesResizes: small deltas and young resizes hold
// the current allocation; admissions and capacity pressure do not wait.
func TestHysteresisThrottlesResizes(t *testing.T) {
	m := NewMalleableHysteresis(30, 2)
	a := JobState{Job: mkJob(0, 0, 100, 1, 16, 0), Remaining: 100}
	st := State{Nodes: 16, Now: 0, Active: []JobState{a}}
	alloc := allocate(m, st)
	if alloc[0] != 16 {
		t.Fatalf("admission alloc = %d, want 16", alloc[0])
	}
	a.Alloc = 16

	// A second job arrives at t=10: its admission happens immediately,
	// and the incumbent is shrunk (capacity pressure overrides the
	// epoch).
	b := JobState{Job: mkJob(1, 10, 100, 1, 16, 0), Remaining: 100}
	st = State{Nodes: 16, Now: 10, Active: []JobState{a, b}}
	alloc = allocate(m, st)
	if alloc[1] != 8 {
		t.Fatalf("new job got %d nodes, want 8", alloc[1])
	}
	if alloc[0] != 8 {
		t.Fatalf("incumbent kept %d nodes, want 8 under pressure", alloc[0])
	}
	a.Alloc, b.Alloc = alloc[0], alloc[1]

	// b departs at t=20; a's target doubles, but its last resize was at
	// t=10 < epoch 30: hold.
	st = State{Nodes: 16, Now: 20, Active: []JobState{a}}
	alloc = allocate(m, st)
	if alloc[0] != 8 {
		t.Fatalf("resize inside epoch: got %d, want held 8", alloc[0])
	}

	// Past the epoch the held job finally grows.
	st = State{Nodes: 16, Now: 41, Active: []JobState{a}}
	alloc = allocate(m, st)
	if alloc[0] != 16 {
		t.Fatalf("post-epoch resize: got %d, want 16", alloc[0])
	}
	a.Alloc = 16

	// A one-node delta is below min_delta 2: held even past the epoch.
	a.Job.MaxNodes = 15
	a.Alloc = 16 // pretend the cap changed after allocation
	st = State{Nodes: 17, Now: 100, Active: []JobState{a}}
	if got := allocate(m, st)[0]; got != 16 {
		t.Fatalf("sub-delta resize applied: %d", got)
	}
}

// TestHysteresisCapacityRepair: a capacity drop below the held total
// must shrink allocations immediately, epoch or not.
func TestHysteresisCapacityRepair(t *testing.T) {
	m := NewMalleableHysteresis(1000, 2)
	a := JobState{Job: mkJob(0, 0, 100, 1, 8, 0), Remaining: 100, Alloc: 8}
	b := JobState{Job: mkJob(1, 0, 100, 1, 8, 0), Remaining: 100, Alloc: 8}
	m.clocks = []resizeClock{{id: 0, at: 0}, {id: 1, at: 0}}
	st := State{Nodes: 10, Now: 1, Active: []JobState{a, b}}
	alloc := allocate(m, st)
	if alloc[0]+alloc[1] > 10 {
		t.Fatalf("over-allocation after capacity drop: %v", alloc)
	}
}

// TestHysteresisReusedIDStartsUnthrottled: a job's resize clock leaves
// with it, so a later job reusing its ID (after a pass without it) moves
// at once.
func TestHysteresisReusedIDStartsUnthrottled(t *testing.T) {
	m := NewMalleableHysteresis(100, 2)
	first := JobState{Job: mkJob(3, 0, 100, 1, 16, 0), Remaining: 100}
	if got := allocate(m, State{Nodes: 8, Now: 0, Active: []JobState{first}})[3]; got != 8 {
		t.Fatalf("admission: got %d, want 8", got) // clock of ID 3 set at t=0
	}
	other := JobState{Job: mkJob(5, 0, 100, 1, 16, 0), Remaining: 100, Alloc: 4}
	allocate(m, State{Nodes: 4, Now: 1, Active: []JobState{other}}) // ID 3 has departed

	// Within the first job's epoch, a reused ID 3 holding 4 of a 16-node
	// target moves at once.
	reused := JobState{Job: mkJob(3, 0, 100, 1, 16, 0), Remaining: 100, Alloc: 4}
	stay := allocate(m, State{Nodes: 32, Now: 2, Active: []JobState{reused, other}})
	if stay[3] != 16 {
		t.Fatalf("reused ID throttled by its predecessor's clock: got %d, want 16", stay[3])
	}
}

func TestEstRemaining(t *testing.T) {
	js := JobState{Job: mkJob(0, 0, 60, 3, 8, 0), Remaining: 10} // phases of 20 each, 10 left in first
	// On 5 perfectly parallel nodes: (10+20+20)/5 = 10s.
	if got := js.EstRemaining(5); got != 10 {
		t.Fatalf("EstRemaining = %v, want 10", got)
	}
	if got := js.EstRemaining(0); !isInf(got) {
		t.Fatalf("EstRemaining(0) = %v, want +Inf", got)
	}
	if w := js.RemainingWork(); w != 50 {
		t.Fatalf("RemainingWork = %v, want 50", w)
	}
}

func isInf(f float64) bool { return f > 1e300 }

// TestPoliciesZeroAllocSteadyState: with warm scratch buffers, no policy
// allocates on a repeat Allocate pass over an unchanged state — the
// per-policy half of the zero-allocation contract (the simulator-side
// half is asserted in internal/cluster).
func TestPoliciesZeroAllocSteadyState(t *testing.T) {
	src := rng.New(7)
	const nodes = 24
	st := State{Nodes: nodes, Now: 50}
	for i := 0; i < 12; i++ {
		js := JobState{Job: mkJob(i, src.Uniform(0, 40), src.Uniform(10, 90), 1+src.Intn(3), 1+src.Intn(nodes), src.Uniform(0, 0.3))}
		js.Remaining = js.Job.Phases[0].Work
		st.Active = append(st.Active, js)
	}
	out := make([]int, len(st.Active))
	for _, name := range Names() {
		policy := fresh(t, name)
		// Warm-up sizes the scratch buffers; give the state a feasible
		// allocation so the steady pass resembles mid-run invocations.
		for i := range out {
			out[i] = 0
		}
		policy.Allocate(st, out)
		for i, a := range out {
			st.Active[i].Alloc = a
		}
		st.Held = heldOf(st.Active)
		allocs := testing.AllocsPerRun(100, func() {
			for i := range out {
				out[i] = 0
			}
			policy.Allocate(st, out)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per steady-state Allocate, want 0", name, allocs)
		}
	}
}
