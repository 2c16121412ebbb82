package cluster

import (
	"math"
	"reflect"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/obs"
	"dpsim/internal/sched"
)

// steadyProbeSim is steadySim with the built-in recorder attached and the
// fixed-interval sampler running — the probe-enabled twin of the
// zero-allocation matrix.
func steadyProbeSim(tb testing.TB, policyName string) (*Sim, *obs.Recorder) {
	tb.Helper()
	policy, err := sched.New(policyName, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := NewSim(32, policy, steadyJobs(24, 400, 32))
	if err != nil {
		tb.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{Label: policyName})
	if err := sim.SetProbe(rec); err != nil {
		tb.Fatal(err)
	}
	if err := sim.SetSampleInterval(0.5); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if !sim.ProcessNextEvent() {
			tb.Fatal("workload drained during warm-up")
		}
	}
	return sim, rec
}

// TestProcessNextEventBoundedAllocWithProbe is the probe-attached
// counterpart of TestProcessNextEventZeroAllocSteadyState: with the
// built-in recorder and sampler running, a steady-state event may only
// allocate through the recorder's ring growth, which amortizes to well
// under one allocation per event. A failure means a hook site started
// allocating per call.
func TestProcessNextEventBoundedAllocWithProbe(t *testing.T) {
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sim, _ := steadyProbeSim(t, name)
			allocs := testing.AllocsPerRun(200, func() {
				if !sim.ProcessNextEvent() {
					t.Fatal("workload drained mid-measurement")
				}
			})
			if allocs > 1 {
				t.Errorf("%s: %v amortized allocations per probed event, want <= 1", name, allocs)
			}
		})
	}
}

// obsWorkload is a small workload with capacity volatility and
// reconfiguration costs: it exercises every probe hook (notice, abrupt
// drop, preemption, lost work, redistribution).
func obsWorkload(tb testing.TB, policyName string, probe obs.Probe, sampleDT float64) Result {
	tb.Helper()
	policy, err := sched.New(policyName, nil)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := NewSim(16, policy, steadyJobs(8, 40, 16))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.SetCapacityChanges([]availability.Change{
		{At: 30, Capacity: 6},
		{At: 60, Capacity: 16, NoticeS: 0},
		{At: 90, Capacity: 4, NoticeS: 10},
		{At: 120, Capacity: 16},
	}); err != nil {
		tb.Fatal(err)
	}
	if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1}); err != nil {
		tb.Fatal(err)
	}
	if probe != nil {
		if err := sim.SetProbe(probe); err != nil {
			tb.Fatal(err)
		}
		if sampleDT > 0 {
			if err := sim.SetSampleInterval(sampleDT); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sim.Run()
}

// TestProbeDoesNotChangeResult pins the observer-effect-free contract:
// attaching the recorder and the sampler must leave the Result deeply
// identical to the probe-free run — same instants, same float bits.
func TestProbeDoesNotChangeResult(t *testing.T) {
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			bare := obsWorkload(t, name, nil, 0)
			rec := obs.NewRecorder(obs.Config{Label: name})
			probed := obsWorkload(t, name, rec, 0.25)
			if !reflect.DeepEqual(bare, probed) {
				t.Errorf("attaching a probe changed the Result:\nbare:   %+v\nprobed: %+v", bare, probed)
			}
		})
	}
}

// TestRecorderMatchesResult cross-checks the recorder's independent
// accounting against the simulator's own Result counters.
func TestRecorderMatchesResult(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{Label: "equipartition"})
	res := obsWorkload(t, "equipartition", rec, 0.5)
	sum := rec.Summarize()
	if sum.Arrived != 8 {
		t.Errorf("arrived = %d, want 8", sum.Arrived)
	}
	if sum.Finished != 8-res.Unfinished {
		t.Errorf("finished = %d, Result says %d", sum.Finished, 8-res.Unfinished)
	}
	if math.Abs(sum.LostWorkS-res.LostWorkS) > 1e-9 {
		t.Errorf("lost work %g, Result says %g", sum.LostWorkS, res.LostWorkS)
	}
	if math.Abs(sum.RedistributionS-res.RedistributionS) > 1e-9 {
		t.Errorf("redistribution %g, Result says %g", sum.RedistributionS, res.RedistributionS)
	}
	if sum.CapacitySteps < res.CapacityEvents {
		t.Errorf("capacity steps %d < applied events %d", sum.CapacitySteps, res.CapacityEvents)
	}
	if sum.SchedulerLatency.Invocations == 0 {
		t.Error("no scheduler invocations recorded")
	}
	if sum.Samples == 0 {
		t.Error("no time-series samples recorded")
	}
	if len(rec.Spans()) == 0 {
		t.Error("no spans recorded")
	}
}

// TestSampleGrid pins the sampler to the t = k·dt grid: every sample
// instant must be an exact multiple of the interval, strictly
// increasing, starting at 0.
func TestSampleGrid(t *testing.T) {
	rec := obs.NewRecorder(obs.Config{})
	obsWorkload(t, "equipartition", rec, 0.5)
	samples := rec.Samples()
	if len(samples) < 10 {
		t.Fatalf("only %d samples", len(samples))
	}
	if samples[0].T != 0 {
		t.Errorf("first sample at %g, want 0", samples[0].T)
	}
	prev := -1.0
	for i, s := range samples {
		if k := math.Round(s.T / 0.5); math.Abs(s.T-k*0.5) > 1e-9 {
			t.Errorf("sample %d at %g off the 0.5s grid", i, s.T)
		}
		if s.T <= prev {
			t.Errorf("sample %d at %g not after %g", i, s.T, prev)
		}
		prev = s.T
		if s.Available > 0 {
			want := float64(s.Allocated) / float64(s.Available)
			if math.Abs(s.Utilization-want) > 1e-9 {
				t.Errorf("sample %d utilization %g, want %g", i, s.Utilization, want)
			}
		}
	}
}

// TestSampleAtCapacityChangeInstant: a sample on an instant that is also
// a capacity change reads the post-change pool, and one on an arrival
// instant the pre-arrival job set, whatever the run's history — the
// sampler has its own tier between capacity and arrival. (Within one tier
// the order is FIFO by push, and a suspend/resume re-pushes the capacity
// event behind a sample already queued for the instant.)
func TestSampleAtCapacityChangeInstant(t *testing.T) {
	sampleAt := func(first float64, injected ...*Job) map[float64]obs.Sample {
		t.Helper()
		sim := avSim(t, 8, sched.Equipartition{}, []*Job{singleJob(first, 1, 8)},
			[]availability.Change{{At: 30, Capacity: 4}}, ReconfigCost{})
		rec := obs.NewRecorder(obs.Config{})
		if err := sim.SetProbe(rec); err != nil {
			t.Fatal(err)
		}
		if err := sim.SetSampleInterval(10); err != nil {
			t.Fatal(err)
		}
		driveOpen(t, sim, injected, nil)
		byT := map[float64]obs.Sample{}
		for _, s := range rec.Samples() {
			byT[s.T] = s
		}
		return byT
	}
	// One long job across the change: the timeline never suspends.
	if s, ok := sampleAt(400)[30]; !ok || s.Available != 4 {
		t.Errorf("uninterrupted run: sample at t=30 reads %+v, want Available=4", s)
	}
	// The first job finishes at t=25 (timeline suspends, the t=30 sample
	// is already queued); a job arriving at t=28 resumes it. A second
	// arrival lands exactly on the t=40 sample.
	b := singleJob(400, 1, 8)
	b.ID, b.Arrival = 1, 28
	c := singleJob(40, 1, 8)
	c.ID, c.Arrival = 2, 40
	got := sampleAt(200, b)
	if s, ok := got[30]; !ok || s.Available != 4 {
		t.Errorf("after a suspend/resume: sample at t=30 reads %+v, want Available=4", s)
	}
	got = sampleAt(400, c)
	if s, ok := got[40]; !ok || s.Running+s.Waiting != 1 {
		t.Errorf("sample at the t=40 arrival instant reads %+v, want the one pre-arrival job", s)
	}
}

// TestSamplerResumesAfterIdle: when the workload drains the sampler
// stops, and a later Inject resumes it on the same grid — no samples
// during the idle gap, grid-aligned samples after.
func TestSamplerResumesAfterIdle(t *testing.T) {
	policy, err := sched.New("equipartition", nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(8, policy, []*Job{
		{ID: 0, Arrival: 0, Phases: SyntheticProfile(2, 10, 0.05)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{})
	if err := sim.SetProbe(rec); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSampleInterval(1); err != nil {
		t.Fatal(err)
	}
	for sim.ProcessNextEvent() {
	}
	drained := len(rec.Samples())
	if drained == 0 {
		t.Fatal("no samples before the idle gap")
	}
	end := sim.Now().Seconds()
	if err := sim.Inject(&Job{ID: 1, Arrival: end + 10.25, Phases: SyntheticProfile(2, 10, 0.05)}); err != nil {
		t.Fatal(err)
	}
	for sim.ProcessNextEvent() {
	}
	samples := rec.Samples()
	if len(samples) <= drained {
		t.Fatal("sampler did not resume after Inject")
	}
	for _, s := range samples[drained:] {
		if k := math.Round(s.T); math.Abs(s.T-k) > 1e-9 {
			t.Errorf("resumed sample at %g off the 1s grid", s.T)
		}
		if s.T <= end {
			t.Errorf("sample at %g inside the idle gap ending %g", s.T, end)
		}
	}
}

// TestSamplerStopsOnStrandedJob: a job no capacity change can ever
// place again (a rigid 8-node job on a pool that dropped to 4 for good)
// leaves the event queue empty but for the sampler; the sampler must
// stop there instead of sampling the stranded job forever.
func TestSamplerStopsOnStrandedJob(t *testing.T) {
	sim := avSim(t, 8, &sched.Rigid{}, []*Job{singleJob(400, 1, 8)},
		[]availability.Change{{At: 5, Capacity: 4}}, ReconfigCost{})
	rec := obs.NewRecorder(obs.Config{})
	if err := sim.SetProbe(rec); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSampleInterval(1); err != nil {
		t.Fatal(err)
	}
	for events := 0; sim.ProcessNextEvent(); events++ {
		if events > 1000 {
			t.Fatalf("still running at t=%g with %d samples", sim.Now().Seconds(), len(rec.Samples()))
		}
	}
	if res := sim.Result(); res.Unfinished != 1 {
		t.Errorf("unfinished = %d, want the stranded job", res.Unfinished)
	}
	if n := len(rec.Samples()); n == 0 || n > 10 {
		t.Errorf("%d samples of a run whose last change lands at t=5", n)
	}
}

// TestProbeSetupErrors: the observability setters must refuse to run
// mid-flight, and reject a non-positive interval.
func TestProbeSetupErrors(t *testing.T) {
	policy, err := sched.New("equipartition", nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(4, policy, steadyJobs(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSampleInterval(0); err == nil {
		t.Error("zero sample interval accepted")
	}
	sim.ProcessNextEvent()
	if err := sim.SetProbe(obs.NewRecorder(obs.Config{})); err == nil {
		t.Error("SetProbe accepted after start")
	}
	if err := sim.SetSampleInterval(1); err == nil {
		t.Error("SetSampleInterval accepted after start")
	}
}

// BenchmarkSchedulerInvokeProbed is BenchmarkSchedulerInvoke with the
// recorder and sampler attached: the allocs/op delta against the bare
// benchmark is the whole cost of observability.
func BenchmarkSchedulerInvokeProbed(b *testing.B) {
	for _, name := range sched.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			sim, _ := steadyProbeSim(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.ProcessNextEvent() {
					b.StopTimer()
					sim, _ = steadyProbeSim(b, name)
					b.StartTimer()
				}
			}
		})
	}
}
