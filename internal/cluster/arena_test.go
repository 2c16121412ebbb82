package cluster

import (
	"fmt"
	"slices"
	"testing"

	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// arenaCheck wraps a policy and checks the sched.State contract at every
// Allocate, from both sides. The simulator's side: st.Active is the active
// list in ascending ID order, each view that of the job at the same index
// of sim.actives, in range, and holding the allocation in force before the
// pass (or none, if the preempt stage evicted the job), st.Held lists
// exactly the views holding nodes, ascending, and out arrives zeroed (the
// simulator recycles it without a clear). The policy's side:
// it leaves st.Active exactly as it found it — the views are the jobs' one
// copy of their phase, remaining work and allocation, so a write would
// change the run. It keeps the first breach.
type arenaCheck struct {
	inner    Scheduler
	sim      *Sim
	calls    int
	before   []sched.JobState
	mismatch string
}

func (a *arenaCheck) Name() string { return a.inner.Name() }

func (a *arenaCheck) Allocate(st sched.State, out []int) {
	a.calls++
	if a.mismatch == "" {
		a.mismatch = arenaMismatch(a.sim, st)
	}
	if a.mismatch == "" && (len(out) != len(st.Active) || slices.ContainsFunc(out, func(x int) bool { return x != 0 })) {
		a.mismatch = fmt.Sprintf("t=%v: out arrives as %v for %d views", a.sim.Now(), out, len(st.Active))
	}
	a.before = append(a.before[:0], st.Active...)
	a.inner.Allocate(st, out)
	if a.mismatch != "" {
		return
	}
	for i, v := range st.Active {
		if v != a.before[i] {
			a.mismatch = fmt.Sprintf("t=%v: %s wrote view %d of job %d: {phase %d, remaining %g, alloc %d} became {phase %d, remaining %g, alloc %d}",
				a.sim.Now(), a.inner.Name(), i, v.Job.ID, a.before[i].PhaseIdx, a.before[i].Remaining, a.before[i].Alloc,
				v.PhaseIdx, v.Remaining, v.Alloc)
			return
		}
	}
}

// arenaMismatch describes the first way in which st.Active is not the
// simulator's active list as the policy should see it, or returns "".
func arenaMismatch(sim *Sim, st sched.State) string {
	if len(st.Active) != len(sim.actives) {
		return fmt.Sprintf("t=%v: %d views for %d active jobs", sim.Now(), len(st.Active), len(sim.actives))
	}
	for i, v := range st.Active {
		switch {
		case v.Job != sim.actives[i].Job:
			return fmt.Sprintf("t=%v: view %d is of job %d, active job %d is %d", sim.Now(), i, v.Job.ID, i, sim.actives[i].Job.ID)
		case i > 0 && st.Active[i-1].Job.ID >= v.Job.ID:
			return fmt.Sprintf("t=%v: view %d (job %d) follows job %d", sim.Now(), i, v.Job.ID, st.Active[i-1].Job.ID)
		case v.PhaseIdx < 0 || v.PhaseIdx >= len(v.Job.Phases):
			return fmt.Sprintf("t=%v: job %d is in phase %d of %d", sim.Now(), v.Job.ID, v.PhaseIdx, len(v.Job.Phases))
		case v.Remaining < 0 || v.Remaining > v.Phase().Work:
			return fmt.Sprintf("t=%v: job %d has %g of phase work %g left", sim.Now(), v.Job.ID, v.Remaining, v.Phase().Work)
		case v.Alloc != 0 && v.Alloc != sim.oldAlloc[i]:
			return fmt.Sprintf("t=%v: job %d's view holds %d nodes, %d in force", sim.Now(), v.Job.ID, v.Alloc, sim.oldAlloc[i])
		}
	}
	var held []int
	for i, v := range st.Active {
		if v.Alloc > 0 {
			held = append(held, i)
		}
	}
	if !slices.Equal(st.Held, held) {
		return fmt.Sprintf("t=%v: Held %v, views holding nodes %v", sim.Now(), st.Held, held)
	}
	return ""
}

// arenaJobs is an overloaded workload: 36 jobs, bursts of simultaneous
// arrivals, widths up to the 8-node pool, so most passes see jobs that
// wait through them next to jobs that run, resize and finish.
func arenaJobs(src *rng.Source, models bool, tb testing.TB) []*Job {
	ms := fingerprintModels(tb)
	jobs := make([]*Job, 36)
	for i := range jobs {
		jobs[i] = &Job{
			ID:       i,
			Arrival:  0.5 * float64(i/4*src.Intn(6)),
			Phases:   SyntheticProfile(1+src.Intn(4), float64(4+src.Intn(30)), 0.01*float64(src.Intn(6))),
			MaxNodes: 1 + src.Intn(8),
		}
		if models && i%2 == 0 {
			jobs[i].Model = ms[i%len(ms)]
		}
	}
	for i := 1; i < len(jobs); i++ { // the open drive injects in arrival order
		jobs[i].Arrival = max(jobs[i].Arrival, jobs[i-1].Arrival)
	}
	return jobs
}

// runArena drives one arena case with inner wrapped in an arenaCheck and
// returns the check. Between steps it also pins LoadInfo, which reads the
// allocation arena, against the allocations in the views.
func runArena(t *testing.T, inner Scheduler, volatile, costs, models, open bool, seed uint64) *arenaCheck {
	t.Helper()
	const nodes = 8
	src := rng.New(seed)
	jobs := arenaJobs(src, models, t)
	check := &arenaCheck{inner: inner}
	closed := jobs
	if open {
		closed = nil
	}
	sim, err := NewSim(nodes, check, closed)
	if err != nil {
		t.Fatal(err)
	}
	check.sim = sim
	if volatile {
		if err := sim.SetCapacityChanges(cursorTimeline(src, nodes)); err != nil {
			t.Fatal(err)
		}
	}
	if costs {
		if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	observe := func(int) {
		var li LoadInfo
		for _, v := range sim.views {
			if v.Alloc > 0 {
				li.Running++
				li.Allocated += v.Alloc
			} else {
				li.Waiting++
			}
		}
		if got := sim.LoadInfo(); got.Running != li.Running || got.Waiting != li.Waiting || got.Allocated != li.Allocated {
			t.Fatalf("t=%v: LoadInfo %+v, views %+v", sim.Now(), got, li)
		}
	}
	if open {
		driveOpen(t, sim, jobs, observe)
	} else {
		for sim.ProcessNextEvent() {
			observe(0)
		}
	}
	return check
}

// TestViewArenaPolicyContract checks the sched.State contract on the
// persistent views arena (arenaCheck) for every registered policy ×
// fixed/volatile pool × free or priced reconfiguration (cluster-wide
// costs and models carrying their own ckpt_s/migrate_s) × closed/open
// drive: every pass hands the policy the active jobs' own views, and no
// policy writes them.
func TestViewArenaPolicyContract(t *testing.T) {
	waited := 0
	for _, name := range sched.Names() {
		for c := range 16 {
			volatile, costs, models, open := c&1 != 0, c&2 != 0, c&4 != 0, c&8 != 0
			inner, err := sched.New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			check := runArena(t, inner, volatile, costs, models, open, uint64(100+c))
			if check.mismatch != "" {
				t.Errorf("%s volatile=%v costs=%v models=%v open=%v: %s", name, volatile, costs, models, open, check.mismatch)
			}
			if check.calls == 0 {
				t.Errorf("%s case %d: the policy was never invoked", name, c)
			}
			for _, js := range check.sim.finished {
				if js.firstStart > js.Job.Arrival {
					waited++
				}
			}
		}
	}
	if waited == 0 {
		t.Error("no job ever waited: no view went through a pass untouched by the simulator")
	}
}

// writingPolicy breaks the sched.State contract: after the inner policy
// fills out, it writes into the views of the jobs left waiting.
type writingPolicy struct{ inner Scheduler }

func (w writingPolicy) Name() string { return "test-writes-views" }

func (w writingPolicy) Allocate(st sched.State, out []int) {
	w.inner.Allocate(st, out)
	for i := range st.Active {
		if out[i] == 0 {
			st.Active[i].Remaining++
		}
	}
}

// TestViewArenaCatchesWritingPolicy: a policy that writes st.Active
// changes the jobs' own state — the write survives into the next pass for
// every job that stays waiting — and the contract check catches it.
func TestViewArenaCatchesWritingPolicy(t *testing.T) {
	inner, err := sched.New("rigid-fcfs", nil)
	if err != nil {
		t.Fatal(err)
	}
	check := runArena(t, writingPolicy{inner}, false, false, false, false, 1)
	if check.mismatch == "" {
		t.Fatal("the contract check missed a policy writing st.Active")
	}
	t.Log(check.mismatch)
}

// TestBitsetShiftsLikeASlice: the holder set's insert and remove shift
// its bits exactly as slices.Insert and slices.Delete shift a []bool,
// across word boundaries, at sizes up to 300 indices.
func TestBitsetShiftsLikeASlice(t *testing.T) {
	src := rng.New(3)
	var b bitset
	var ref []bool
	for step := 0; step < 20000; step++ {
		if len(ref) == 0 || len(ref) < 300 && src.Float64() < 0.55 {
			i := src.Intn(len(ref) + 1)
			ref = slices.Insert(ref, i, false)
			b = b.insert(i, len(ref))
		} else {
			i := src.Intn(len(ref))
			ref = slices.Delete(ref, i, i+1)
			b = b.remove(i, len(ref))
		}
		if len(ref) > 0 && src.Float64() < 0.5 { // mark a random index held
			i := src.Intn(len(ref))
			ref[i] = true
			b[i>>6] |= 1 << (i & 63)
		}
		if len(b) != (len(ref)+63)/64 {
			t.Fatalf("step %d: %d words for %d indices", step, len(b), len(ref))
		}
		for i := range len(b) * 64 {
			want := i < len(ref) && ref[i]
			if got := b[i>>6]>>(i&63)&1 == 1; got != want {
				t.Fatalf("step %d: bit %d is %v, want %v", step, i, got, want)
			}
		}
	}
}
