package cluster

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/eventq"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
	"dpsim/internal/trace"
)

// avSim builds a Sim over simple perfectly-parallel jobs with a capacity
// timeline and cost model installed.
func avSim(t *testing.T, nodes int, sched Scheduler, jobs []*Job, ch []availability.Change, cost ReconfigCost) *Sim {
	t.Helper()
	sim, err := NewSim(nodes, sched, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetCapacityChanges(ch); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetReconfigCost(cost); err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestCapacitySlowdown: halving the pool for a stretch must slow a
// saturating job down by exactly the lost node-seconds (perfectly
// parallel job, equipartition). 8 nodes, 160 work-seconds: 20s flat out.
// Capacity 4 during [5, 15) removes 4×10 = 40 node-seconds → finish 25s.
func TestCapacitySlowdown(t *testing.T) {
	job := singleJob(160, 1, 8)
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{job},
		[]availability.Change{{At: 5, Capacity: 4}, {At: 15, Capacity: 8}}, ReconfigCost{})
	r := sim.Run()
	if math.Abs(r.Makespan-25) > 1e-9 {
		t.Fatalf("makespan %g, want 25", r.Makespan)
	}
	if r.CapacityEvents != 2 {
		t.Fatalf("capacity events %d, want 2", r.CapacityEvents)
	}
	// Availability-weighted utilization is perfect: every offered
	// node-second did useful work (8×25 − 4×10 = 160 node-seconds).
	if math.Abs(r.AvailWeightedUtilization-1) > 1e-9 {
		t.Fatalf("avail-weighted utilization %g, want 1", r.AvailWeightedUtilization)
	}
	if r.Utilization >= r.AvailWeightedUtilization {
		t.Fatalf("raw utilization %g should undercut availability-weighted %g", r.Utilization, r.AvailWeightedUtilization)
	}
}

// TestCapacityDropPreemptsRigid: a rigid job holding the full pool must
// be evicted when capacity drops below its allocation, wait out the
// outage, and be re-admitted when capacity returns.
func TestCapacityDropPreemptsRigid(t *testing.T) {
	job := singleJob(80, 1, 8) // 10s on 8 nodes
	sim := avSim(t, 8, &sched.Rigid{}, []*Job{job},
		[]availability.Change{{At: 4, Capacity: 4}, {At: 16, Capacity: 8}}, ReconfigCost{})
	r := sim.Run()
	// 4s of progress (32 work-seconds), evicted during [4, 16) (rigid
	// demands all 8), then 48/8 = 6s more: finish at 22.
	if math.Abs(r.Makespan-22) > 1e-9 {
		t.Fatalf("makespan %g, want 22", r.Makespan)
	}
	if len(r.PerJob) != 1 {
		t.Fatalf("job did not finish: %+v", r)
	}
}

// TestAbruptDropLosesWork: with a lost-work cost, an abrupt reclaim rolls
// back progress; the same drop announced in advance loses nothing.
func TestAbruptDropLosesWork(t *testing.T) {
	mk := func(notice float64) Result {
		job := singleJob(160, 1, 8)
		sim := avSim(t, 8, sched.Equipartition{}, []*Job{job},
			[]availability.Change{{At: 5, Capacity: 4, NoticeS: notice}, {At: 15, Capacity: 8}},
			ReconfigCost{LostWorkS: 3})
		return sim.Run()
	}
	abrupt := mk(0)
	if abrupt.LostWorkS != 12 { // 4 reclaimed nodes × 3 work-seconds
		t.Fatalf("abrupt lost work %g, want 12", abrupt.LostWorkS)
	}
	// The rollback re-adds 12 work-seconds, done at 4..8 nodes.
	if abrupt.Makespan <= 25 {
		t.Fatalf("abrupt makespan %g, want > 25", abrupt.Makespan)
	}
	graceful := mk(2)
	if graceful.LostWorkS != 0 {
		t.Fatalf("graceful lost work %g, want 0", graceful.LostWorkS)
	}
	// Draining early (at t=3) costs node-seconds but loses no work:
	// 160 − 3×8 = 136 left, capacity 4 over [3, 15) does 48, rest on 8:
	// finish 15 + 88/8 = 26.
	if math.Abs(graceful.Makespan-26) > 1e-9 {
		t.Fatalf("graceful makespan %g, want 26", graceful.Makespan)
	}
	if graceful.Makespan >= abrupt.Makespan {
		t.Fatalf("notice should beat rollback: graceful %g vs abrupt %g", graceful.Makespan, abrupt.Makespan)
	}
}

// TestLostWorkCappedAtPhaseProgress: the rollback can never exceed the
// progress made in the current phase.
func TestLostWorkCappedAtPhaseProgress(t *testing.T) {
	job := singleJob(160, 1, 8)
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{job},
		[]availability.Change{{At: 1, Capacity: 4}, {At: 15, Capacity: 8}},
		ReconfigCost{LostWorkS: 100}) // 4 nodes × 100 ≫ the 8 done
	r := sim.Run()
	if r.LostWorkS != 8 { // only 1s × 8 nodes of progress existed
		t.Fatalf("lost work %g, want 8 (capped at phase progress)", r.LostWorkS)
	}
}

// TestRedistributionPause: resizing a running job pauses it; the pause
// shows up in both the accounting and the makespan.
func TestRedistributionPause(t *testing.T) {
	job := singleJob(160, 1, 8)
	free := avSim(t, 8, sched.Equipartition{}, []*Job{singleJob(160, 1, 8)},
		[]availability.Change{{At: 5, Capacity: 4}, {At: 15, Capacity: 8}}, ReconfigCost{})
	base := free.Run()

	paid := avSim(t, 8, sched.Equipartition{}, []*Job{job},
		[]availability.Change{{At: 5, Capacity: 4}, {At: 15, Capacity: 8}},
		ReconfigCost{RedistributionSPerNode: 0.5})
	r := paid.Run()
	if r.RedistributionS != 4 { // two resizes of 4 nodes × 0.5s
		t.Fatalf("redistribution %g, want 4", r.RedistributionS)
	}
	if r.LostWorkS != 0 {
		t.Fatalf("redistribution should lose no work, got %g", r.LostWorkS)
	}
	// Pause at 4 nodes costs 2×4, at 8 nodes 2×8 node-seconds → 24 extra
	// work-seconds of delay ÷ 8 nodes... exact: 25 + 2 + 2×(4/8) wait,
	// just require the pause lengthened the run by at least 2s.
	if r.Makespan < base.Makespan+2 {
		t.Fatalf("makespan %g vs cost-free %g: pause not charged", r.Makespan, base.Makespan)
	}
}

// TestWaitAndFirstStart: a rigid pool admits the second job only when the
// first releases it; Wait/FirstStart must measure exactly that delay.
func TestWaitAndFirstStart(t *testing.T) {
	a := singleJob(80, 1, 8) // runs [0, 10) on all 8 nodes
	b := singleJob(40, 1, 8) // arrives at 2, admitted at 10, runs 5s
	b.ID, b.Arrival = 1, 2
	sim, err := NewSim(8, &sched.Rigid{}, []*Job{a, b})
	if err != nil {
		t.Fatal(err)
	}
	r := sim.Run()
	if len(r.PerJob) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(r.PerJob))
	}
	if w := r.PerJob[0].Wait; w != 0 {
		t.Fatalf("job 0 wait %g, want 0", w)
	}
	if fs := r.PerJob[1].FirstStart; math.Abs(fs-10) > 1e-9 {
		t.Fatalf("job 1 first start %g, want 10", fs)
	}
	if w := r.PerJob[1].Wait; math.Abs(w-8) > 1e-9 {
		t.Fatalf("job 1 wait %g, want 8", w)
	}
}

// TestCapacityZeroStalls: a total outage stalls every job; work resumes
// when the pool returns and all jobs still finish.
func TestCapacityZeroStalls(t *testing.T) {
	job := singleJob(80, 1, 8) // 10s flat out
	sim := avSim(t, 8, &sched.EfficiencyGreedy{}, []*Job{job},
		[]availability.Change{{At: 5, Capacity: 0}, {At: 20, Capacity: 8}}, ReconfigCost{})
	r := sim.Run()
	if math.Abs(r.Makespan-25) > 1e-9 { // 5s + 15s outage + 5s
		t.Fatalf("makespan %g, want 25", r.Makespan)
	}
}

// TestCapacityEventsDoNotStretchMakespan: changes after the last job
// event are processed but must not move the makespan or the utilization
// integral.
func TestCapacityEventsDoNotStretchMakespan(t *testing.T) {
	job := singleJob(80, 1, 8)
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{job},
		[]availability.Change{{At: 500, Capacity: 4}, {At: 600, Capacity: 8}}, ReconfigCost{})
	r := sim.Run()
	if math.Abs(r.Makespan-10) > 1e-9 {
		t.Fatalf("makespan %g, want 10: post-workload capacity events leaked in", r.Makespan)
	}
	if r.AvailWeightedUtilization != r.Utilization {
		t.Fatalf("avail-weighted %g != %g though no change preceded the makespan",
			r.AvailWeightedUtilization, r.Utilization)
	}
}

// TestSetAfterStartRejected: the configuration surface is sealed once the
// event loop runs.
func TestSetAfterStartRejected(t *testing.T) {
	sim, err := NewSim(4, sched.Equipartition{}, []*Job{singleJob(4, 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	sim.ProcessNextEvent()
	if err := sim.SetCapacityChanges([]availability.Change{{At: 1, Capacity: 2}}); err == nil {
		t.Fatal("SetCapacityChanges accepted after start")
	}
	if err := sim.SetReconfigCost(ReconfigCost{LostWorkS: 1}); err == nil {
		t.Fatal("SetReconfigCost accepted after start")
	}
}

// TestSetCapacityChangesValidation: out-of-order or out-of-range
// timelines, non-finite instants and notices, and noticed drops whose
// notices differ are rejected up front, naming the change. Rises and
// abrupt drops may sit beside the one notice.
func TestSetCapacityChangesValidation(t *testing.T) {
	sim, err := NewSim(4, sched.Equipartition{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	type rejected struct {
		changes []availability.Change
		want    string
	}
	bad := []rejected{
		{[]availability.Change{{At: 5, Capacity: 2}, {At: 3, Capacity: 4}}, "change 1 at 3 out of order"},
		{[]availability.Change{{At: 1, Capacity: 9}}, "change 0 to 9 outside"},
		{[]availability.Change{{At: 1, Capacity: -1}}, "change 0 to -1 outside"},
		{[]availability.Change{{At: -1, Capacity: 2}}, "change 0 at -1 out of order"},
		{[]availability.Change{{At: 1, Capacity: 2, NoticeS: -3}}, "change 0 has negative notice"},
		{[]availability.Change{{At: 1, Capacity: 2, NoticeS: 2}, {At: 5, Capacity: 4}, {At: 9, Capacity: 1, NoticeS: 3}},
			"change 2 has notice 3, the timeline's is 2"},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			rejected{[]availability.Change{{At: 1, Capacity: 2}, {At: v, Capacity: 3}}, fmt.Sprintf("change 1 at %g, not a finite instant", v)},
			rejected{[]availability.Change{{At: 1, Capacity: 2, NoticeS: v}}, fmt.Sprintf("change 0 has notice %g, not a finite number", v)})
	}
	for i, c := range bad {
		if err := sim.SetCapacityChanges(c.changes); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("timeline %d %+v: err = %v, want %q", i, c.changes, err, c.want)
		}
	}
	ok := []availability.Change{{At: 1, Capacity: 2, NoticeS: 2}, {At: 5, Capacity: 4, NoticeS: 7}, {At: 6, Capacity: 3}, {At: 9, Capacity: 1, NoticeS: 2}}
	if err := sim.SetCapacityChanges(ok); err != nil {
		t.Errorf("one notice with a noticed rise and an abrupt drop beside it: %v", err)
	}
}

// TestStrandedJobUtilization: a job stranded by a permanent capacity
// loss must not count its unexecuted work toward utilization (which
// could exceed 100%), and must be surfaced as unfinished.
func TestStrandedJobUtilization(t *testing.T) {
	a := singleJob(2, 1, 1)    // runs [0, 2] on 1 node
	b := singleJob(1000, 1, 8) // admitted at t=2, stranded at t=2.5
	b.ID = 1
	sim := avSim(t, 8, &sched.Rigid{}, []*Job{a, b},
		[]availability.Change{{At: 2.5, Capacity: 1}}, ReconfigCost{})
	r := sim.Run()
	if r.Unfinished != 1 || len(r.PerJob) != 1 {
		t.Fatalf("unfinished %d, finished %d; want 1 and 1", r.Unfinished, len(r.PerJob))
	}
	if math.Abs(r.Makespan-2) > 1e-9 {
		t.Fatalf("makespan %g, want 2 (a's finish)", r.Makespan)
	}
	// Executed work: a's 2 + b's 0.5s × 8 nodes = 6 over 8×2 node-seconds.
	if math.Abs(r.Utilization-0.375) > 1e-9 {
		t.Fatalf("utilization %g, want 0.375 (stranded work must not count)", r.Utilization)
	}
}

// TestNoticeSurvivesInterveningEvents: a reclaim notice must keep the
// doomed nodes off the scheduler's pool even when other capacity events
// (here a drop and a restore) land inside the notice window.
func TestNoticeSurvivesInterveningEvents(t *testing.T) {
	job := singleJob(1600, 1, 8)
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{job},
		[]availability.Change{
			{At: 100, Capacity: 6},
			{At: 110, Capacity: 8},
			{At: 120, Capacity: 2, NoticeS: 30},
		},
		ReconfigCost{LostWorkS: 5})
	r := sim.Run()
	if r.LostWorkS != 0 {
		t.Fatalf("lost work %g on a noticed drop", r.LostWorkS)
	}
	// Announced at t=90: the job drains to 2 nodes there and stays ≤ 2
	// through the window (720 done by 90, 880 left at rate 2 → 530). If
	// an intervening event re-raised the pool, the run would finish
	// earlier on un-drained doomed nodes.
	if math.Abs(r.Makespan-530) > 1e-9 {
		t.Fatalf("makespan %g, want 530: notice window was voided", r.Makespan)
	}
}

// TestRedistributionChargesExtensionOnly: overlapping redistribution
// pauses coalesce, so the accounting must charge the extension a resize
// actually adds, not its nominal pause.
func TestRedistributionChargesExtensionOnly(t *testing.T) {
	a := singleJob(160, 1, 8)
	b := singleJob(20, 1, 4)
	b.ID, b.Arrival = 1, 6
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{a, b},
		[]availability.Change{{At: 5, Capacity: 4}},
		ReconfigCost{RedistributionSPerNode: 0.5})
	r := sim.Run()
	// t=5: a 8→4 pauses until 7 (charge 2). t=6: a 4→2 wants until 7 —
	// fully inside the live pause, charge 0. t=16: a 2→4 pauses 1s
	// (charge 1). Nominal-sum accounting would report 4.
	if r.RedistributionS != 3 {
		t.Fatalf("redistribution %g, want 3 (extension-only charging)", r.RedistributionS)
	}
}

// TestLostWorkBoundedByCapacityDelta: only the nodes an abrupt event
// actually reclaims are charged, even when the forced reallocation
// shrinks a job by more (its other nodes migrate, they aren't lost).
func TestLostWorkBoundedByCapacityDelta(t *testing.T) {
	a := singleJob(800, 1, 8)
	b := singleJob(400, 1, 4)
	b.ID, b.Arrival = 1, 1
	// Rigid on 12 nodes: a holds 8, b holds 4. Abrupt drop to 11 evicts b
	// entirely (shrink 4) but only 1 node left the pool.
	sim := avSim(t, 12, &sched.Rigid{}, []*Job{a, b},
		[]availability.Change{{At: 5, Capacity: 11}}, ReconfigCost{LostWorkS: 3})
	r := sim.Run()
	if r.LostWorkS != 3 { // 1 reclaimed node × 3, NOT 4 × 3
		t.Fatalf("lost work %g, want 3 (bounded by the 1-node capacity delta)", r.LostWorkS)
	}
}

// TestIdleCapacityTimelineSuspends: capacity events beyond the workload
// are cancelled instead of churning the event loop for the rest of the
// availability horizon.
func TestIdleCapacityTimelineSuspends(t *testing.T) {
	job := singleJob(80, 1, 8) // finishes at 10
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{job},
		[]availability.Change{{At: 500, Capacity: 4}, {At: 600, Capacity: 8}}, ReconfigCost{})
	r := sim.Run()
	if r.CapacityEvents != 0 {
		t.Fatalf("%d capacity events fired after the workload ended", r.CapacityEvents)
	}
	if fired := sim.q.Fired(); fired > 4 {
		t.Fatalf("%d events fired for a 1-job run: suspension did not kick in", fired)
	}
}

// TestInjectAfterSuspensionCatchesUp: a job injected after the timeline
// suspended must observe the capacity the elapsed changes left behind.
func TestInjectAfterSuspensionCatchesUp(t *testing.T) {
	run := func(arrival, want float64) {
		t.Helper()
		a := singleJob(80, 1, 8) // finishes at 10; timeline suspends
		sim := avSim(t, 8, sched.Equipartition{}, []*Job{a},
			[]availability.Change{{At: 500, Capacity: 4}, {At: 600, Capacity: 8}}, ReconfigCost{})
		for sim.ProcessNextEvent() {
		}
		b := singleJob(40, 1, 8)
		b.ID, b.Arrival = 1, arrival
		if err := sim.Inject(b); err != nil {
			t.Fatal(err)
		}
		for sim.ProcessNextEvent() {
		}
		r := sim.Result()
		if len(r.PerJob) != 2 {
			t.Fatalf("arrival %g: finished %d jobs, want 2", arrival, len(r.PerJob))
		}
		if got := r.PerJob[1].Finish; math.Abs(got-want) > 1e-9 {
			t.Fatalf("arrival %g: job finished at %g, want %g", arrival, got, want)
		}
	}
	// Injected at 550: capacity 4 (the 500-change elapsed while idle) →
	// 40 work at rate 4 finishes at 560. At 650: capacity back to 8 → 655.
	run(550, 560)
	run(650, 655)
}

// TestInjectExactTieMatchesClosedRun: an arrival injected at exactly a
// job's completion instant must reproduce the closed run bit-for-bit,
// including reallocation counts and reconfiguration charges (the arrival
// tier guarantees the same event order in both drives).
func TestInjectExactTieMatchesClosedRun(t *testing.T) {
	mkJobs := func() []*Job {
		a := singleJob(40, 1, 8) // completes at exactly t=5 on 8 nodes
		b := singleJob(40, 1, 8)
		b.ID, b.Arrival = 1, 5 // collides with a's completion
		return []*Job{a, b}
	}
	cost := ReconfigCost{RedistributionSPerNode: 0.5}

	cs, err := NewSim(8, sched.Equipartition{}, mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.SetReconfigCost(cost); err != nil {
		t.Fatal(err)
	}
	want := cs.Run()

	os, err := NewSim(8, sched.Equipartition{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.SetReconfigCost(cost); err != nil {
		t.Fatal(err)
	}
	jobs := mkJobs()
	i := 0
	for {
		et, evOK := os.PeekNextEventTime()
		if i < len(jobs) {
			at := eventq.Time(eventq.DurationOf(jobs[i].Arrival))
			if !evOK || at <= et {
				if err := os.Inject(jobs[i]); err != nil {
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
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("open run diverges from closed at an exact tie:\n%+v\nvs\n%+v", got, want)
	}
	if got.Reallocations != want.Reallocations {
		t.Fatalf("reallocations %d vs %d", got.Reallocations, want.Reallocations)
	}
}

// TestGeneratedTimelineRuns: an availability.Spec-generated stochastic
// timeline drives a full workload deterministically end to end.
func TestGeneratedTimelineRuns(t *testing.T) {
	run := func() Result {
		spec := availability.Spec{Process: "failures", MTTFS: 120, MTTRS: 40, HorizonS: 2000}
		ch, err := spec.Generate(12, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		sim := avSim(t, 12, &sched.EfficiencyGreedy{}, PoissonWorkload(10, 12, 8, 5), ch,
			ReconfigCost{RedistributionSPerNode: 0.2, LostWorkS: 1})
		return sim.Run()
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || !slices.Equal(a.PerJob, b.PerJob) ||
		a.LostWorkS != b.LostWorkS || a.Reallocations != b.Reallocations {
		t.Fatalf("stochastic availability broke determinism:\n%+v\nvs\n%+v", a, b)
	}
	if a.CapacityEvents == 0 {
		t.Fatal("no capacity events applied")
	}
	if len(a.PerJob) != 10 {
		t.Fatalf("finished %d of 10 jobs", len(a.PerJob))
	}
}

// TestZeroCapacityWindowOverIdlePoolChangesNothing is a metamorphic
// property no golden states: two batches of jobs separated by an idle
// gap, with the pool dropped to zero nodes inside the gap (abruptly or
// with notice) and restored before the second batch, run exactly as on
// the fixed pool under every policy, in the closed drive (NewSim jobs,
// Run) and the open one (Inject). Only the capacity counters differ: two
// changes were applied, and the available-capacity integral shrank.
func TestZeroCapacityWindowOverIdlePoolChangesNothing(t *testing.T) {
	const nodes, gapFrom, gapTo = 16, 2000.0, 4000.0
	batches := func() []*Job {
		src := rng.New(77)
		var jobs []*Job
		for _, base := range []float64{0, gapTo + 500} {
			for k := range 6 {
				jobs = append(jobs, &Job{
					ID:       len(jobs),
					Arrival:  base + float64(3*k),
					Phases:   SyntheticProfile(1+src.Intn(3), float64(20+src.Intn(60)), 0.03),
					MaxNodes: 2 + src.Intn(10),
				})
			}
		}
		return jobs
	}
	cost := ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1.5}
	for _, notice := range []float64{0, 50} {
		window := []availability.Change{
			{At: gapFrom + 500, Capacity: 0, NoticeS: notice},
			{At: gapTo - 500, Capacity: nodes},
		}
		for _, name := range sched.Names() {
			for _, open := range []bool{false, true} {
				run := func(changes []availability.Change) Result {
					policy, err := sched.New(name, nil)
					if err != nil {
						t.Fatal(err)
					}
					jobs := batches()
					if open {
						sim := avSim(t, nodes, policy, nil, changes, cost)
						driveOpen(t, sim, jobs, nil)
						return sim.Result()
					}
					return avSim(t, nodes, policy, jobs, changes, cost).Run()
				}
				fixed, windowed := run(nil), run(window)
				label := fmt.Sprintf("%s open=%v notice=%g", name, open, notice)
				if len(fixed.PerJob) != 12 || slices.MaxFunc(fixed.PerJob[:6], byFinish).Finish >= gapFrom {
					t.Fatalf("%s: the first batch does not finish before the gap: %+v", label, fixed.PerJob)
				}
				if !slices.Equal(windowed.PerJob, fixed.PerJob) || windowed.Makespan != fixed.Makespan ||
					windowed.Utilization != fixed.Utilization || windowed.Reallocations != fixed.Reallocations ||
					windowed.LostWorkS != fixed.LostWorkS || windowed.RedistributionS != fixed.RedistributionS {
					t.Errorf("%s: the idle window changed the run:\nfixed    %+v\nwindowed %+v", label, fixed, windowed)
				}
				if fixed.CapacityEvents != 0 || windowed.CapacityEvents != 2 {
					t.Errorf("%s: capacity events %d (fixed) and %d (windowed), want 0 and 2",
						label, fixed.CapacityEvents, windowed.CapacityEvents)
				}
				if windowed.AvailWeightedUtilization <= fixed.AvailWeightedUtilization {
					t.Errorf("%s: avail-weighted utilization %g with the window, %g without; want higher",
						label, windowed.AvailWeightedUtilization, fixed.AvailWeightedUtilization)
				}
			}
		}
	}
}

func byFinish(a, b JobOutcome) int { return cmp.Compare(a.Finish, b.Finish) }

// TestPartialPauseOverlapChargesExtension: a redistribution pause that
// starts inside a live one and outlasts it is charged exactly the time it
// adds. t=5: 8→4 nodes pauses [5, 7) (charge 2). t=6: 4→1 wants [6, 7.5),
// which overlaps the live pause by 1s (charge 0.5, not its nominal 1.5).
// t=20: 1→8 pauses 3.5s (charge 3.5).
func TestPartialPauseOverlapChargesExtension(t *testing.T) {
	sim := avSim(t, 8, sched.Equipartition{}, []*Job{singleJob(160, 1, 8)},
		[]availability.Change{{At: 5, Capacity: 4}, {At: 6, Capacity: 1}, {At: 20, Capacity: 8}},
		ReconfigCost{RedistributionSPerNode: 0.5})
	r := sim.Run()
	if r.RedistributionS != 6 {
		t.Fatalf("redistribution %g, want 6 (2 + the 0.5 extension + 3.5)", r.RedistributionS)
	}
}

// TestPausedJobMakesNoProgress: a job paused for a redistribution does no
// work until the pause ends, so it finishes exactly the pause later than
// the same run without the cost. A 40-work job on 4 nodes has 20 left at
// t=5, where a drop to 2 nodes pauses it for 1s; a no-op capacity change
// at t=6 settles it again at the pause's end.
func TestPausedJobMakesNoProgress(t *testing.T) {
	timeline := []availability.Change{{At: 5, Capacity: 2}, {At: 6, Capacity: 2}}
	remainingAt := func(sim *Sim, seconds float64) float64 {
		t.Helper()
		end := eventq.Time(eventq.DurationOf(seconds))
		for {
			if next, ok := sim.PeekNextEventTime(); !ok || next > end {
				break
			}
			sim.ProcessNextEvent()
		}
		if len(sim.views) != 1 {
			t.Fatalf("at %gs: %d active jobs, want 1", seconds, len(sim.views))
		}
		return sim.views[0].Remaining
	}
	paused := avSim(t, 8, sched.Equipartition{}, []*Job{singleJob(40, 1, 4)}, timeline,
		ReconfigCost{RedistributionSPerNode: 0.5})
	start, end := remainingAt(paused, 5), remainingAt(paused, 6)
	if start != 20 || end != start {
		t.Fatalf("remaining work %g at the pause's start and %g at its end, want 20 and 20", start, end)
	}
	withPause := paused.Run()
	free := avSim(t, 8, sched.Equipartition{}, []*Job{singleJob(40, 1, 4)}, timeline, ReconfigCost{}).Run()
	if withPause.RedistributionS != 1 {
		t.Fatalf("redistribution %g, want 1", withPause.RedistributionS)
	}
	if free.Makespan != 15 || withPause.Makespan != 16 {
		t.Fatalf("makespan %g with the pause and %g without, want 16 and 15", withPause.Makespan, free.Makespan)
	}
}

// TestTimelineReplaysAsTrace: a timeline is its changes and its one
// notice. Written through trace.WriteCapacity and replayed as a trace
// spec carrying the timeline's NoticeS, with the same min_capacity and
// horizon, every process's timeline yields the same changes, and the same
// Result under two policies.
func TestTimelineReplaysAsTrace(t *testing.T) {
	const nodes, horizon = 16, 4000.0
	dir := t.TempDir()
	for i, spec := range []availability.Spec{
		{Process: "maintenance", StartS: 30, PeriodS: 300, DurationS: 60, NodesDown: 6, NoticeS: 40},
		{Process: "failures", MTTFS: 400, MTTRS: 100},
		{Process: "failures", MTTFS: 400, MTTRS: 100, Dist: "weibull", Shape: 0.8},
		{Process: "churn", MeanOnS: 300, MeanOffS: 100, MinCapacity: 4},
		{Process: "spot", ReclaimMeanS: 100, ReclaimNodes: 3, RestoreMeanS: 150, NoticeS: 30, MinCapacity: 3},
		{Process: "spot", ReclaimMeanS: 100, ReclaimNodes: 3, RestoreMeanS: 150, MinCapacity: 3},
	} {
		spec.HorizonS = horizon
		seed := uint64(i + 1)
		tl, err := spec.Timeline(nodes, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		changes, err := spec.Generate(nodes, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		points := make([]trace.CapacityPoint, len(changes))
		noticed := 0
		for k, c := range changes {
			points[k] = trace.CapacityPoint{T: c.At, Capacity: c.Capacity}
			if c.NoticeS > 0 {
				noticed++
			}
		}
		if len(changes) < 10 || (noticed > 0) != (spec.NoticeS > 0) {
			t.Fatalf("%s: %d changes, %d noticed: not the timeline the test is about", spec.Label(), len(changes), noticed)
		}
		var csv strings.Builder
		if err := trace.WriteCapacity(&csv, points); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("cap%d.csv", i))
		if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		replay := availability.Spec{Process: "trace", Path: path, NoticeS: tl.NoticeS(), MinCapacity: spec.MinCapacity, HorizonS: horizon}
		replayed, err := replay.Generate(nodes, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(replayed, changes) {
			t.Fatalf("%s: replayed as a trace, the timeline changed:\n%+v\nwant\n%+v", spec.Label(), replayed, changes)
		}
		for _, policy := range []Scheduler{sched.Equipartition{}, &sched.Rigid{}} {
			run := func(s availability.Spec) Result {
				tl, err := s.Timeline(nodes, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				sim, err := NewSim(nodes, policy, PoissonWorkload(40, nodes, 30, 3))
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.SetCapacityTimeline(tl); err != nil {
					t.Fatal(err)
				}
				if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1}); err != nil {
					t.Fatal(err)
				}
				r := sim.Run()
				if err := sim.Err(); err != nil {
					t.Fatal(err)
				}
				return r
			}
			want, got := run(spec), run(replay)
			if want.CapacityEvents == 0 {
				t.Fatalf("%s under %s: no capacity event during the run", spec.Label(), policy.Name())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s under %s: the trace replay's Result differs:\n%+v\nwant\n%+v", spec.Label(), policy.Name(), got, want)
			}
		}
	}
}

// TestPullIsHorizonIndependent: a run that ends well before its
// timeline's horizon H pulls the same changes, and so has the same
// Result, at H and at 30·H — what lies past the run's end is never
// generated — and pulls only a fraction of what Generate draws up to H.
func TestPullIsHorizonIndependent(t *testing.T) {
	const nodes, horizon = 16, 20000.0
	for _, spec := range []availability.Spec{
		{Process: "maintenance", StartS: 30, PeriodS: 300, DurationS: 60, NodesDown: 6, NoticeS: 40},
		{Process: "failures", MTTFS: 400, MTTRS: 100},
		{Process: "failures", MTTFS: 400, MTTRS: 100, Dist: "weibull", Shape: 0.8},
		{Process: "churn", MeanOnS: 300, MeanOffS: 100, MinCapacity: 4},
		{Process: "spot", ReclaimMeanS: 100, ReclaimNodes: 3, RestoreMeanS: 150, NoticeS: 30, MinCapacity: 3},
	} {
		run := func(h float64) (Result, int) {
			spec := spec
			spec.HorizonS = h
			tl, err := spec.Timeline(nodes, rng.New(9))
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSim(nodes, &sched.EfficiencyGreedy{}, PoissonWorkload(20, nodes, 10, 3))
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.SetCapacityTimeline(tl); err != nil {
				t.Fatal(err)
			}
			if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1}); err != nil {
				t.Fatal(err)
			}
			r := sim.Run()
			if err := sim.Err(); err != nil {
				t.Fatal(err)
			}
			return r, len(sim.changes)
		}
		short, pulledShort := run(horizon)
		long, pulledLong := run(30 * horizon)
		label := spec.Label()
		if short.Makespan >= horizon/4 || short.CapacityEvents == 0 {
			t.Fatalf("%s: makespan %g with %d capacity events; want a run ending early under a volatile pool",
				label, short.Makespan, short.CapacityEvents)
		}
		if !reflect.DeepEqual(short, long) {
			t.Errorf("%s: Result at horizon %g differs from 30x:\n%+v\n%+v", label, horizon, short, long)
		}
		if pulledShort != pulledLong {
			t.Errorf("%s: pulled %d changes at horizon %g, %d at 30x", label, pulledShort, horizon, pulledLong)
		}
		spec.HorizonS = horizon
		all, err := spec.Generate(nodes, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if pulledShort*2 > len(all) {
			t.Errorf("%s: pulled %d of the %d changes before the horizon", label, pulledShort, len(all))
		}
	}
}
