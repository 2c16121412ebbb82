package federation

import (
	"fmt"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// refEarliest is the member scan the winner tree replaced: the member
// with the earliest pending event, lowest index on ties. It asks every
// member's own queue rather than the federation's cache, so it also
// catches a cache entry the federation forgot to refresh.
func refEarliest(f *Sim) (int, eventq.Time) {
	best := -1
	var bestT eventq.Time
	for i := range f.members {
		if t, ok := f.members[i].Sim.PeekNextEventTime(); ok && (best < 0 || t < bestT) {
			best, bestT = i, t
		}
	}
	return best, bestT
}

// TestWinnerTreeMatchesScan drives random fleets of every size from 1 to
// 70 members (powers of two and not) and compares the tree's pick with
// refEarliest before every step and injection. Instants are whole
// seconds, so members tie often; a third of the members get no jobs,
// and members whose workload ran dry suspend their capacity timelines
// until an injection replays them behind the frontier.
func TestWinnerTreeMatchesScan(t *testing.T) {
	// behind counts picks behind the shared clock (a replayed timeline),
	// ties picks another member shares: the fleets must produce both.
	behind, ties := 0, 0
	for size := 1; size <= 70; size++ {
		src := rng.New(uint64(size))
		members := make([]Member, size)
		for i := range members {
			nodes := 2 + src.Intn(7)
			policy, err := sched.New("equipartition", nil)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := cluster.NewSim(nodes, policy, nil)
			if err != nil {
				t.Fatal(err)
			}
			var changes []availability.Change
			notice := float64(1 + src.Intn(5)) // one per timeline
			for at, n := 0, src.Intn(6); n > 0; n-- {
				at += 1 + src.Intn(20)
				c := availability.Change{At: float64(at), Capacity: 1 + src.Intn(nodes)}
				if src.Intn(3) == 0 {
					c.NoticeS = notice
				}
				changes = append(changes, c)
			}
			if err := sim.SetCapacityChanges(changes); err != nil {
				t.Fatal(err)
			}
			members[i] = Member{Name: fmt.Sprintf("c%d", i), Sim: sim}
		}
		a, r := mustPolicies(t, "always", "round-robin")
		fed, err := NewSim(members, a, r)
		if err != nil {
			t.Fatal(err)
		}
		// Arrivals on whole seconds, each delivered to a random member
		// among the two thirds that take jobs; the first few arrive at
		// t=0, before the federation has built its tree.
		var jobs []*cluster.Job
		var dest []int
		for at, id := 0, 0; id < 3*size; id++ {
			if id >= 3 {
				at += src.Intn(4)
			}
			phases := make([]cluster.Phase, 1+src.Intn(3))
			for k := range phases {
				phases[k] = cluster.Phase{Work: float64(1 + src.Intn(12))}
			}
			jobs = append(jobs, &cluster.Job{ID: id, Arrival: float64(at), Phases: phases, MaxNodes: 1 + src.Intn(4)})
			dest = append(dest, src.Intn(size)/3*3)
		}
		check := func(when string) {
			t.Helper()
			gotI, gotT := fed.earliest()
			wantI, wantT := refEarliest(fed)
			if gotI != wantI || (wantI >= 0 && gotT != wantT) {
				t.Fatalf("%d members, %s: tree picks member %d at %v, scan %d at %v", size, when, gotI, gotT, wantI, wantT)
			}
			if wantI < 0 {
				return
			}
			if wantT < fed.Now() {
				behind++
			}
			for i := wantI + 1; i < size; i++ {
				if at, ok := members[i].Sim.PeekNextEventTime(); ok && at == wantT {
					ties++
					break
				}
			}
		}
		next := 0
		for ; next < len(jobs) && jobs[next].Arrival == 0; next++ {
			if err := fed.InjectInto(dest[next], jobs[next]); err != nil {
				t.Fatal(err)
			}
		}
		steps := 0
		for {
			check(fmt.Sprintf("after %d steps and %d arrivals", steps, next))
			et, evOK := fed.PeekNextEventTime()
			if next < len(jobs) {
				at := eventq.Time(eventq.DurationOf(jobs[next].Arrival))
				if !evOK || at <= et {
					if err := fed.InjectInto(dest[next], jobs[next]); err != nil {
						t.Fatal(err)
					}
					next++
					continue
				}
			}
			if !fed.ProcessNextEvent() {
				break
			}
			steps++
		}
		if next != len(jobs) || steps == 0 {
			t.Fatalf("%d members: %d of %d arrivals, %d steps", size, next, len(jobs), steps)
		}
	}
	if behind == 0 || ties == 0 {
		t.Fatalf("%d picks behind the clock, %d tied picks: the fleets miss a case", behind, ties)
	}
	t.Logf("%d picks behind the clock, %d tied picks", behind, ties)
}
