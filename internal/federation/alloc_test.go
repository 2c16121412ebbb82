package federation

import (
	"fmt"
	"testing"

	"dpsim/internal/cluster"
	"dpsim/internal/sched"
)

// steadyMembers builds a warmed-up federation mid-flight: every member
// carries a closed workload whose steady state is long and uneventful
// (the cluster-package steadySim recipe), so each federated step is a
// pure member phase-completion plus the orchestrator's winner-tree pick.
func steadyMembers(tb testing.TB, clusters int, admission, router string) *Sim {
	tb.Helper()
	members := make([]Member, clusters)
	for c := range members {
		jobs := make([]*cluster.Job, 16)
		for i := range jobs {
			jobs[i] = &cluster.Job{
				ID:      i,
				Arrival: 0,
				// Stagger work per member so phase completions interleave
				// across the fleet rather than marching in lockstep.
				Phases:   cluster.SyntheticProfile(400, float64(100+7*i+3*c), 0.02+0.01*float64(i%5)),
				MaxNodes: 1 + (i % 16),
			}
		}
		policy, err := sched.New("equipartition", nil)
		if err != nil {
			tb.Fatal(err)
		}
		sim, err := cluster.NewSim(16, policy, jobs)
		if err != nil {
			tb.Fatal(err)
		}
		members[c] = Member{Name: fmt.Sprintf("c%d", c), Sim: sim}
	}
	a, err := NewAdmission(admission, nil)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := NewRouter(router, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fed, err := NewSim(members, a, r)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64*clusters; i++ {
		if !fed.ProcessNextEvent() {
			tb.Fatal("workload drained during warm-up")
		}
	}
	return fed
}

// TestFederationStepZeroAllocSteadyState extends the zero-allocation
// contract through the federated tier: once warmed up, a federated step
// — tree pick plus the member's own steady-state event — must not
// allocate, for every admission×routing pair (the policies are idle
// during stepping, but the pin runs per pair so a stateful policy that
// leaks into the step path is caught).
func TestFederationStepZeroAllocSteadyState(t *testing.T) {
	for _, a := range AdmissionNames() {
		for _, r := range RouterNames() {
			a, r := a, r
			t.Run(a+"/"+r, func(t *testing.T) {
				fed := steadyMembers(t, 2, a, r)
				allocs := testing.AllocsPerRun(200, func() {
					if !fed.ProcessNextEvent() {
						t.Fatal("workload drained mid-measurement")
					}
				})
				if allocs != 0 {
					t.Errorf("%s×%s: %v allocations per federated step, want 0", a, r, allocs)
				}
			})
		}
	}
}

// TestOfferZeroAllocSteadyState pins the dispatch decision itself: the
// admission call, the view rebuild and the routing call reuse the
// orchestrator's scratch, so offering a job allocates nothing for any
// registered pair.
func TestOfferZeroAllocSteadyState(t *testing.T) {
	for _, a := range AdmissionNames() {
		for _, r := range RouterNames() {
			a, r := a, r
			t.Run(a+"/"+r, func(t *testing.T) {
				fed := steadyMembers(t, 2, a, r)
				j := &cluster.Job{ID: 0, Arrival: 0, Phases: []cluster.Phase{{Work: 1}}, MaxNodes: 2}
				allocs := testing.AllocsPerRun(200, func() {
					if _, _, err := fed.Offer(j); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s×%s: %v allocations per Offer, want 0", a, r, allocs)
				}
			})
		}
	}
}

// BenchmarkFederationStep measures the orchestrator's stepping overhead:
// one op is one federated steady-state event — the chosen member's own
// event plus one leaf-to-root replay of the winner tree over N members,
// so ns/op grows with log N, not N. Comparing against
// BenchmarkSchedulerInvoke isolates the federation tax; allocs/op must
// report 0 at every size.
func BenchmarkFederationStep(b *testing.B) {
	for _, clusters := range []int{2, 4, 8, 32, 512} {
		clusters := clusters
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			fed := steadyMembers(b, clusters, "always", "round-robin")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !fed.ProcessNextEvent() {
					b.StopTimer()
					fed = steadyMembers(b, clusters, "always", "round-robin")
					b.StartTimer()
				}
			}
		})
	}
}
