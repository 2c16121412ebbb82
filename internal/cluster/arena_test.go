package cluster

import (
	"fmt"
	"testing"

	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// arenaCheck wraps a policy and, at every Allocate, compares the views
// the simulator hands it — the persistent arena, refreshed only for jobs
// that hold or are granted nodes — with a snapshot rebuilt from the live
// job states, the way every pass built it before the arena. It keeps the
// first difference.
type arenaCheck struct {
	inner    Scheduler
	sim      *Sim
	calls    int
	mismatch string
}

func (a *arenaCheck) Name() string { return a.inner.Name() }

func (a *arenaCheck) Allocate(st sched.State, out []int) {
	a.calls++
	if a.mismatch == "" {
		a.mismatch = arenaMismatch(a.sim, st)
	}
	a.inner.Allocate(st, out)
}

// arenaMismatch describes the first field in which st.Active differs from
// a snapshot rebuilt from sim.actives, or returns "".
func arenaMismatch(sim *Sim, st sched.State) string {
	if len(st.Active) != len(sim.actives) {
		return fmt.Sprintf("t=%v: %d views for %d active jobs", sim.Now(), len(st.Active), len(sim.actives))
	}
	for i, js := range sim.actives {
		want := sched.JobState{Job: js.Job, PhaseIdx: js.PhaseIdx, Remaining: js.Remaining, Alloc: js.Alloc}
		if got := st.Active[i]; got != want {
			return fmt.Sprintf("t=%v: view %d of job %d is {phase %d, remaining %g, alloc %d}, rebuilt {phase %d, remaining %g, alloc %d}",
				sim.Now(), i, js.Job.ID, got.PhaseIdx, got.Remaining, got.Alloc, js.PhaseIdx, js.Remaining, js.Alloc)
		}
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
// allocation arena, against the live job states.
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
		for _, js := range sim.actives {
			if js.Alloc > 0 {
				li.Running++
				li.Allocated += js.Alloc
			} else {
				li.Waiting++
			}
		}
		if got := sim.LoadInfo(); got.Running != li.Running || got.Waiting != li.Waiting || got.Allocated != li.Allocated {
			t.Fatalf("t=%v: LoadInfo %+v, live jobs %+v", sim.Now(), got, li)
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

// TestViewArenaMatchesRebuild is the oracle of the persistent views
// arena: for every registered policy × fixed/volatile pool × free or
// priced reconfiguration (cluster-wide costs and models carrying their
// own ckpt_s/migrate_s) × closed/open drive, every view the policy is
// handed equals the snapshot the simulator used to rebuild per pass.
func TestViewArenaMatchesRebuild(t *testing.T) {
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
		t.Error("no job ever waited: the arena's untouched entries went unchecked")
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
// corrupts the persistent arena — the write survives into the next pass
// for every job that stays waiting — and the arena oracle catches it.
func TestViewArenaCatchesWritingPolicy(t *testing.T) {
	inner, err := sched.New("rigid-fcfs", nil)
	if err != nil {
		t.Fatal(err)
	}
	check := runArena(t, writingPolicy{inner}, false, false, false, false, 1)
	if check.mismatch == "" {
		t.Fatal("the arena oracle missed a policy writing st.Active")
	}
	t.Log(check.mismatch)
}
