package cluster

import (
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// batchBenchWorkload is the equal-instant burst shape (batch trace
// replay, bursty-MMPP): waves of identical jobs all arriving at exactly
// the same instant. Identical jobs under equipartition stay in lockstep,
// so every phase boundary is a simultaneous-completion burst too — the
// workload the per-instant scheduler coalescing exists for.
func batchBenchWorkload(waves, perWave int, intervalS float64) []*Job {
	out := make([]*Job, 0, waves*perWave)
	for w := 0; w < waves; w++ {
		for i := 0; i < perWave; i++ {
			out = append(out, &Job{
				ID:       w*perWave + i,
				Arrival:  float64(w) * intervalS,
				Phases:   SyntheticProfile(6, 120, 0.05),
				MaxNodes: 4,
			})
		}
	}
	return out
}

// BenchmarkClusterStep measures the event-loop hot path: one op is a full
// open-workload run stepped event by event — on a fixed pool, on a
// volatile one with reconfiguration costs, and on an equal-instant burst
// workload — so regressions in the classic path, the availability
// machinery and the coalescing path all show up in the trajectory.
func BenchmarkClusterStep(b *testing.B) {
	spec := availability.Spec{Process: "failures", MTTFS: 300, MTTRS: 80, HorizonS: 3000}
	changes, err := spec.Generate(16, rng.New(9))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, volatile bool) {
		events := 0
		for i := 0; i < b.N; i++ {
			sim, err := NewSim(16, &sched.EfficiencyGreedy{}, PoissonWorkload(60, 16, 4, 7))
			if err != nil {
				b.Fatal(err)
			}
			if volatile {
				if err := sim.SetCapacityChanges(changes); err != nil {
					b.Fatal(err)
				}
				if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.2, LostWorkS: 1}); err != nil {
					b.Fatal(err)
				}
			}
			for sim.ProcessNextEvent() {
				events++
			}
		}
		reportEventRates(b, events)
	}
	b.Run("fixed", func(b *testing.B) { run(b, false) })
	b.Run("volatile", func(b *testing.B) { run(b, true) })
	b.Run("burst", func(b *testing.B) {
		events := 0
		for i := 0; i < b.N; i++ {
			sim, err := NewSim(16, sched.Equipartition{}, batchBenchWorkload(8, 32, 50))
			if err != nil {
				b.Fatal(err)
			}
			for sim.ProcessNextEvent() {
				events++
			}
		}
		reportEventRates(b, events)
	})
}

// reportEventRates attaches the throughput metrics of a stepped
// benchmark: events per op (workload size sanity) and events per second
// (the number the million-cell sweep target is stated in).
func reportEventRates(b *testing.B, events int) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// scaleSim builds a warmed-up simulation holding n active jobs on the
// given pool — the equal-instant arrival batch at t=0 is coalesced into
// one admission, so even the 10k warm-up is cheap — with enough phases
// left to sustain a long measurement.
func scaleSim(tb testing.TB, policy Scheduler, n, nodes int) *Sim {
	tb.Helper()
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = &Job{
			ID:       i,
			Arrival:  0,
			Phases:   SyntheticProfile(400, float64(100+7*i), 0.02+0.01*float64(i%5)),
			MaxNodes: 1 + i%32,
		}
	}
	sim, err := NewSim(nodes, policy, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n+32; i++ {
		if !sim.ProcessNextEvent() {
			tb.Fatal("workload drained during warm-up")
		}
	}
	return sim
}

// benchScales are the active-set sizes of the scaling benchmarks: the
// per-event cost is O(active), so superlinear growth across these rungs
// exposes accidental O(active²) work that the 24- and 60-job fixtures
// would hide.
var benchScales = []struct {
	name string
	n    int
}{{"active-100", 100}, {"active-1k", 1000}, {"active-10k", 10000}}

// BenchmarkClusterStepScale measures the per-event cost of the stepped
// drive at growing active-set sizes; one op is one steady-state event.
func BenchmarkClusterStepScale(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(sc.name, func(b *testing.B) {
			sim := scaleSim(b, &sched.EfficiencyGreedy{}, sc.n, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.ProcessNextEvent() {
					b.StopTimer()
					sim = scaleSim(b, &sched.EfficiencyGreedy{}, sc.n, 32)
					b.StartTimer()
				}
			}
			reportEventRates(b, b.N)
		})
	}
}

// BenchmarkSchedulerInvokeScale is the scaling companion of
// BenchmarkSchedulerInvoke: the same steady-state invocation cost, but
// over 100/1k/10k active jobs under equipartition — the O(active)
// settle/snapshot/apply loops dominate here, not the policy.
func BenchmarkSchedulerInvokeScale(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(sc.name, func(b *testing.B) {
			sim := scaleSim(b, sched.Equipartition{}, sc.n, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.ProcessNextEvent() {
					b.StopTimer()
					sim = scaleSim(b, sched.Equipartition{}, sc.n, 32)
					b.StartTimer()
				}
			}
			reportEventRates(b, b.N)
		})
	}
}

// BenchmarkSchedulerInvoke1k is BenchmarkSchedulerInvoke at 1,000
// active jobs on 32 nodes: one rung per registered policy, so a policy
// whose pass grows superlinearly in the active set (a per-node rescan of
// every job, a per-width efficiency walk) stands out of the ladder.
func BenchmarkSchedulerInvoke1k(b *testing.B) {
	for _, name := range sched.Names() {
		b.Run(name, func(b *testing.B) {
			policy := func() Scheduler {
				p, err := sched.New(name, nil)
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			sim := scaleSim(b, policy(), 1000, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.ProcessNextEvent() {
					b.StopTimer()
					sim = scaleSim(b, policy(), 1000, 32)
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkSchedulerInvokeWide is the big-active shape: 1,300 active
// jobs on 512 nodes (about its median pass), under the four policies
// that workload runs. Where the 32-node rungs leave at most 32 holders,
// here up to 512 jobs hold nodes (equipartition and fair-share give the
// first 512 one node each), so a pass that walks the holders costs
// about as much as one that walks every active job, and may not cost
// more. At default weights fair-share's pass touches only those 512
// grants after one weight compare per job, as equipartition's does.
func BenchmarkSchedulerInvokeWide(b *testing.B) {
	for _, name := range []string{"easy-backfill", "equipartition", "fair-share", "rigid-fcfs"} {
		b.Run(name, func(b *testing.B) {
			policy := func() Scheduler {
				p, err := sched.New(name, nil)
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			sim := scaleSim(b, policy(), 1300, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.ProcessNextEvent() {
					b.StopTimer()
					sim = scaleSim(b, policy(), 1300, 512)
					b.StartTimer()
				}
			}
		})
	}
}

// idleCycleTimeline is n changes, one every 10 s, drops announced 2 s
// ahead.
func idleCycleTimeline(n int) []availability.Change {
	changes := make([]availability.Change, n)
	for i := range changes {
		changes[i] = availability.Change{At: 10 * float64(i+1), Capacity: 8 + 8*(i%2), NoticeS: 2}
	}
	return changes
}

// idleCycleSim builds a member in the state a federation leaves most of
// its members in most of the time: started, drained and suspended, with
// nearly all of its capacity timeline still ahead of it.
func idleCycleSim(tb testing.TB, changes []availability.Change) *Sim {
	tb.Helper()
	sim, err := NewSim(16, sched.Equipartition{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.SetCapacityChanges(changes); err != nil {
		tb.Fatal(err)
	}
	idleCycle(tb, sim, 0)
	return sim
}

// idleCycle injects one short job arriving 25 s after the previous
// cycle's, drains the member and leaves it suspended again: two or three
// changes (and a notice) elapse per cycle whatever the timeline's length.
func idleCycle(tb testing.TB, sim *Sim, k int) {
	j := &Job{ID: k, Arrival: 25 * float64(k), Phases: SyntheticProfile(1, 8, 0), MaxNodes: 8}
	if err := sim.Inject(j); err != nil {
		tb.Fatal(err)
	}
	for sim.ProcessNextEvent() {
	}
}

// idleCyclesPerSim bounds a member's lifetime in the benchmark so every
// size measures the same 32 cycles at the head of its timeline (the
// shortest, 100 changes, spans 1000 s = 40 cycles).
const idleCyclesPerSim = 32

// BenchmarkCapacityIdleCycle is the idle/busy transition rung of the
// ladder: one op wakes a suspended member with one job, drains it and
// suspends it again. The change density is the same at every size — the
// horizon grows with the count — so the work a cycle has to do is
// constant, and ns/op and allocs/op must be flat across the three sizes
// (docs/performance.md, "Pulled capacity and one notice per timeline").
func BenchmarkCapacityIdleCycle(b *testing.B) {
	for _, sz := range []struct {
		name string
		n    int
	}{{"changes-100", 100}, {"changes-2k", 2000}, {"changes-20k", 20000}} {
		b.Run(sz.name, func(b *testing.B) {
			changes := idleCycleTimeline(sz.n)
			sim := idleCycleSim(b, changes)
			b.ReportAllocs()
			b.ResetTimer()
			for i, k := 0, 1; i < b.N; i, k = i+1, k+1 {
				if k > idleCyclesPerSim {
					b.StopTimer()
					sim, k = idleCycleSim(b, changes), 1
					b.StartTimer()
				}
				idleCycle(b, sim, k)
			}
		})
	}
}
