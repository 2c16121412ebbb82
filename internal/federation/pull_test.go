package federation

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/cluster"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// pullSpecs are one spec per availability process, each with a horizon
// well past the workloads below, so every run ends with most of its
// timeline unpulled.
func pullSpecs(t *testing.T) []availability.Spec {
	dir := t.TempDir()
	csv := "t_s,capacity\n0,12\n40,5\n90,9\n90,3\n200,12\n900,2\n5000,7\n"
	if err := os.WriteFile(filepath.Join(dir, "cap.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return []availability.Spec{
		{Process: "maintenance", StartS: 30, PeriodS: 150, DurationS: 40, NodesDown: 5, NoticeS: 20, HorizonS: 40000},
		{Process: "failures", MTTFS: 300, MTTRS: 60, HorizonS: 40000},
		{Process: "failures", MTTFS: 400, MTTRS: 90, Dist: "weibull", Shape: 0.7, HorizonS: 40000},
		{Process: "churn", MeanOnS: 200, MeanOffS: 60, MinCapacity: 3, HorizonS: 40000},
		{Process: "spot", ReclaimMeanS: 60, ReclaimNodes: 3, RestoreMeanS: 90, NoticeS: 25, MinCapacity: 2, HorizonS: 40000},
		{Process: "trace", Path: "cap.csv", Dir: dir, NoticeS: 15},
	}
}

// TestPullEqualsPush: a Sim that pulls its capacity timeline
// (SetCapacityTimeline) runs exactly as one handed the whole timeline up
// front (SetCapacityChanges of Generate), on every Result field, for
// every availability process × every registered policy, in the closed
// drive (jobs given to NewSim) and the open one (Inject), on a plain Sim
// and in a 3-member federation whose members all pull their own
// timelines.
func TestPullEqualsPush(t *testing.T) {
	const nodes = 12
	for pi, spec := range pullSpecs(t) {
		for _, name := range sched.Names() {
			for _, open := range []bool{false, true} {
				for _, members := range []int{1, 3} {
					label := fmt.Sprintf("%s/%s/open=%v/members=%d", spec.Label(), name, open, members)
					run := func(pull bool) []cluster.Result {
						return runPull(t, spec, uint64(pi+1), name, nodes, members, open, pull)
					}
					push, pulled := run(false), run(true)
					if !reflect.DeepEqual(pulled, push) {
						t.Fatalf("%s: pulled timeline diverges from the pushed one:\npulled %+v\npushed %+v", label, pulled, push)
					}
				}
			}
		}
	}
}

// runPull runs one case and returns the plain Sim's Result, or the
// federation's Merged result followed by its members' Results.
func runPull(t *testing.T, spec availability.Spec, seed uint64, policy string, nodes, members int, open, pull bool) []cluster.Result {
	t.Helper()
	jobs := cluster.PoissonWorkload(30, nodes, 25, 42)
	ms := make([]Member, members)
	for i := range ms {
		p, err := sched.New(policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		var own []*cluster.Job
		if !open {
			for k := i; k < len(jobs); k += members {
				own = append(own, jobs[k])
			}
		}
		sim, err := cluster.NewSim(nodes, p, own)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed + uint64(i))
		if pull {
			tl, err := spec.Timeline(nodes, src)
			if err != nil {
				t.Fatal(err)
			}
			err = sim.SetCapacityTimeline(tl)
		} else {
			changes, err := spec.Generate(nodes, src)
			if err != nil {
				t.Fatal(err)
			}
			err = sim.SetCapacityChanges(changes)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.SetReconfigCost(cluster.ReconfigCost{RedistributionSPerNode: 0.2, LostWorkS: 2}); err != nil {
			t.Fatal(err)
		}
		ms[i] = Member{Name: fmt.Sprint("c", i), Sim: sim}
	}
	var out []cluster.Result
	switch {
	case members == 1 && open:
		out = []cluster.Result{drivePlain(t, ms[0].Sim, jobs)}
	case members == 1:
		out = []cluster.Result{ms[0].Sim.Run()}
	default:
		a, r := mustPolicies(t, "always", "least-loaded")
		fed, err := NewSim(ms, a, r)
		if err != nil {
			t.Fatal(err)
		}
		if open {
			out = []cluster.Result{driveFed(t, fed, jobs)}
		} else {
			for fed.ProcessNextEvent() {
			}
			out = []cluster.Result{fed.Merged()}
		}
		out = append(out, fed.Results()...)
	}
	for _, m := range ms {
		if err := m.Sim.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
