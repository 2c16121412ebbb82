package cluster

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/eventq"
	"dpsim/internal/obs"
	"dpsim/internal/rng"
	"dpsim/internal/sched"
)

// capStreamProbe records the ordered stream of capacity-driven probe
// callbacks — the externally visible trace of the capacity timeline.
type capStreamProbe struct {
	invokeCountProbe // no-op hooks
	b                strings.Builder
}

func (p *capStreamProbe) SchedulerInvoke(t float64, inv obs.SchedulerInvocation) {}
func (p *capStreamProbe) CapacityNotice(t float64, target int) {
	fmt.Fprintf(&p.b, "N %.17g %d\n", t, target)
}
func (p *capStreamProbe) CapacityChange(t float64, capacity int) {
	fmt.Fprintf(&p.b, "C %.17g %d\n", t, capacity)
}
func (p *capStreamProbe) Preempt(t float64, jobID int) {
	fmt.Fprintf(&p.b, "P %.17g %d\n", t, jobID)
}
func (p *capStreamProbe) ReconfigCharge(t float64, jobID int, k obs.ChargeKind, amount float64) {
	fmt.Fprintf(&p.b, "R %.17g %d %d %.17g\n", t, jobID, k, amount)
}

// cursorTimeline draws a hostile capacity timeline on a 0.5 s grid, so
// announce and apply instants of different changes collide: same-instant
// changes, a change at t = 0, and per-mode notices — a notice on every
// change, abrupt drops mixed with noticed ones, notices longer than the
// change's own At (window clamped to the arming instant, many windows
// open at once), and zero-length windows (a positive notice that rounds
// to 0 ns). Like every generated timeline it has one notice: each
// noticed change carries the first noticed drop's, so a draw whose
// noticed drops already agreed yields the timeline it always did.
func cursorTimeline(src *rng.Source, nodes int) []availability.Change {
	n := 6 + src.Intn(30)
	mode := src.Intn(4)
	constNotice := 0.5 * float64(1+src.Intn(8))
	out := make([]availability.Change, 0, n)
	t := 0.0
	if src.Intn(3) != 0 {
		t = 0.5 * float64(1+src.Intn(10))
	}
	for i := 0; i < n; i++ {
		if i > 0 && src.Intn(5) != 0 {
			t += 0.5 * float64(1+src.Intn(12))
		}
		c := availability.Change{At: t, Capacity: 2 + src.Intn(nodes-1)}
		if src.Intn(12) == 0 {
			c.Capacity = 0
		}
		switch mode {
		case 0:
			c.NoticeS = constNotice
		case 1:
			if src.Intn(4) != 0 {
				c.NoticeS = 0.5 * float64(src.Intn(40))
			}
		case 2:
			if src.Intn(2) == 0 {
				c.NoticeS = t + 0.5*float64(src.Intn(20))
			}
		case 3:
			switch src.Intn(3) {
			case 0:
				c.NoticeS = 1e-12
			case 1:
				c.NoticeS = constNotice
			}
		}
		out = append(out, c)
	}
	// End on the full pool: a timeline that ends at capacity 0 strands its
	// jobs, and a stranded job keeps the sampler running forever.
	out[n-1].Capacity = nodes
	notice, prev := 0.0, nodes
	for _, c := range out {
		if notice == 0 && c.NoticeS > 0 && c.Capacity < prev {
			notice = c.NoticeS
		}
		prev = c.Capacity
	}
	for i := range out {
		if out[i].NoticeS > 0 {
			out[i].NoticeS = notice
		}
	}
	return out
}

// cursorShapes names the hostile shapes a timeline on a pool of the given
// size holds: changes at one instant, a notice longer than its drop's At,
// a zero-length window, abrupt drops beside noticed ones, and a window
// opening before the previous noticed drop lands.
func cursorShapes(changes []availability.Change, nodes int) []string {
	var shapes []string
	abrupt, noticed := false, false
	prev, lastNoticed := nodes, -1
	for i, c := range changes {
		if i > 0 && c.At == changes[i-1].At {
			shapes = append(shapes, "same instant")
		}
		if c.Capacity < prev && !(c.NoticeS > 0) {
			abrupt = true
		}
		if c.Capacity < prev && c.NoticeS > 0 {
			noticed = true
			if c.NoticeS > c.At {
				shapes = append(shapes, "notice longer than At")
			}
			if eventq.DurationOf(c.NoticeS) == 0 {
				shapes = append(shapes, "zero-length window")
			}
			if lastNoticed >= 0 && noticeAt(c) < changeAt(changes[lastNoticed]) {
				shapes = append(shapes, "windows open at once")
			}
			lastNoticed = i
		}
		prev = c.Capacity
	}
	if abrupt && noticed {
		shapes = append(shapes, "abrupt and noticed drops")
	}
	return shapes
}

// cursorJobs draws `bursts` groups of short jobs spread over (and past)
// the timeline's horizon; between groups the pool drains, so the
// timeline suspends and the next Inject resumes it.
func cursorJobs(src *rng.Source, bursts int, horizon float64) []*Job {
	var out []*Job
	for b := 0; b < bursts; b++ {
		base := 0.5 * float64(int(2*horizon*1.2*float64(b)/float64(bursts)))
		for k, n := 0, 1+src.Intn(4); k < n; k++ {
			out = append(out, &Job{
				ID:       len(out),
				Arrival:  base + 0.5*float64(k*src.Intn(3)),
				Phases:   SyntheticProfile(1+src.Intn(3), float64(2+src.Intn(16)), 0.02),
				MaxNodes: 1 + src.Intn(8),
			})
		}
	}
	slices.SortStableFunc(out, func(a, b *Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
	for i, j := range out {
		j.ID = i
	}
	return out
}

// driveOpen is the open drive loop (the scenario.RunCell shape): inject
// every job whose arrival does not follow the next pending event, else
// step. It returns the ProcessNextEvent count and how many injections
// found the capacity timeline suspended. A non-nil observe runs after
// every step, with the step count.
func driveOpen(tb testing.TB, sim *Sim, jobs []*Job, observe func(events int)) (events, resumes int) {
	tb.Helper()
	i := 0
	for {
		et, ok := sim.PeekNextEventTime()
		if i < len(jobs) {
			if at := eventq.Time(eventq.DurationOf(jobs[i].Arrival)); !ok || at <= et {
				if sim.capStopped && len(sim.changes) > 0 {
					resumes++
				}
				if err := sim.Inject(jobs[i]); err != nil {
					tb.Fatal(err)
				}
				i++
				continue
			}
		}
		if !ok {
			return events, resumes
		}
		sim.ProcessNextEvent()
		events++
		if observe != nil {
			observe(events)
		}
	}
}

// cursorGoldens are the fingerprints of the 24 cases, recorded from the
// eager implementation (every change pushed at start, all cancelled on
// suspend, all re-pushed on resume) at the commit before the cursor,
// and re-recorded, with no simulator change, when fingerprintResult
// stopped printing the Result means the sweep never read, and when
// cursorTimeline gave each timeline one notice (the 8 cases whose noticed
// drops already agreed kept their eager-recorded values).
var cursorGoldens = [24]string{
	"7ab5f8b75afc7387",
	"9c832bd62c9817be",
	"88bb4896215a9ea1",
	"2faff3bd70a6cb6b",
	"1506555c571ac1f7",
	"8933be204bed6c8f",
	"1fde48df903d9869",
	"2ffb9755021c5362",
	"b315c584c3600067",
	"71b9f60cabb7946a",
	"3a44f026e213a03c",
	"167d26df2467071d",
	"16fee68d94f75cc3",
	"a415849ec3ea99a2",
	"89d53e70acff6c1f",
	"830a4ad9bd68e8ae",
	"a52b07476d04985c",
	"6310ffd13194f6d3",
	"df95a8d71a7d9376",
	"f764b477872a0584",
	"1992e8b275ccaca4",
	"705f43eb38cf4754",
	"ab7006a2094dbe96",
	"7fedf29c7ce45fc3",
}

// TestCapacityCursorGolden pins the capacity cursor to the eager
// implementation it replaced: for 24 seeded timelines × job streams
// driven through Inject, the ordered stream of capacity notices,
// changes, preemptions and reconfiguration charges (with their
// instants), the event count and the full Result are byte-identical.
func TestCapacityCursorGolden(t *testing.T) {
	const nodes = 16
	policies := sched.Names()
	cycles, shapes := map[int]bool{}, map[string]bool{}
	for seed := range cursorGoldens {
		src := rng.New(uint64(1000 + seed))
		changes := cursorTimeline(src, nodes)
		for _, shape := range cursorShapes(changes, nodes) {
			shapes[shape] = true
		}
		bursts := []int{1, 2, 6}[seed%3]
		jobs := cursorJobs(src, bursts, changes[len(changes)-1].At)
		policy, err := sched.New(policies[seed%len(policies)], nil)
		if err != nil {
			t.Fatal(err)
		}
		sim := avSim(t, nodes, policy, nil, changes, ReconfigCost{RedistributionSPerNode: 0.1, LostWorkS: 1.5})
		probe := &capStreamProbe{}
		if err := sim.SetProbe(probe); err != nil {
			t.Fatal(err)
		}
		if seed%2 == 1 {
			// A sampler event outliving the jobs advances the idle clock, so
			// the next resume applies elapsed changes silently.
			if err := sim.SetSampleInterval(7); err != nil {
				t.Fatal(err)
			}
		}
		events, resumes := driveOpen(t, sim, jobs, nil)
		cycles[min(resumes, 3)] = true
		fmt.Fprintf(&probe.b, "events=%d resumes=%d\n%s\n", events, resumes, fingerprintResult(sim.Result()))
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(probe.b.String())))[:16]
		if got != cursorGoldens[seed] {
			t.Errorf("seed %d (%s, %d changes, %d jobs): fingerprint %q, want %q",
				seed, policy.Name(), len(changes), len(jobs), got, cursorGoldens[seed])
			if testing.Verbose() {
				t.Log(probe.b.String())
			}
		}
	}
	for _, want := range []int{0, 1, 3} {
		if !cycles[want] {
			t.Errorf("no case with %d (3 = many) suspend/resume cycles", want)
		}
	}
	for _, want := range []string{"same instant", "notice longer than At", "zero-length window", "abrupt and noticed drops", "windows open at once"} {
		if !shapes[want] {
			t.Errorf("no case with %s", want)
		}
	}
}

// TestCapacityQueueDepthBounded: the heap holds one capacity event, not
// the timeline. With 10 000 changes ahead of 3 long jobs the queue never
// exceeds one phase event per active job, the pending arrivals, the
// capacity cursor and the sampler.
func TestCapacityQueueDepthBounded(t *testing.T) {
	changes := make([]availability.Change, 10000)
	for i := range changes {
		changes[i] = availability.Change{At: float64(i + 1), Capacity: 8 + 8*(i%2), NoticeS: 2.5}
	}
	jobs := make([]*Job, 3)
	for i := range jobs {
		jobs[i] = &Job{ID: i, Arrival: float64(10 * i), Phases: SyntheticProfile(50, 20000, 0.01), MaxNodes: 8}
	}
	sim := avSim(t, 16, sched.Equipartition{}, jobs, changes, ReconfigCost{})
	if err := sim.SetProbe(&capStreamProbe{}); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetSampleInterval(50); err != nil {
		t.Fatal(err)
	}
	for sim.ProcessNextEvent() {
		pending := len(sim.jobs) - len(sim.actives) - len(sim.finished)
		if got, bound := sim.q.Len(), len(sim.actives)+pending+2; got > bound {
			t.Fatalf("t=%v: %d events queued, want <= %d (%d active, %d arrivals pending)",
				sim.Now(), got, bound, len(sim.actives), pending)
		}
	}
	if r := sim.Result(); r.Unfinished != 0 || r.CapacityEvents < 1000 {
		t.Fatalf("run did not cross the timeline: %d unfinished, %d capacity events", r.Unfinished, r.CapacityEvents)
	}
}

// TestSuspendResumeAllocsIndependentOfTimeline: an inject → drain →
// suspend cycle during which no change elapses allocates on a
// 2000-change pool exactly what it allocates on a fixed one — the job's
// own arrival and bookkeeping, nothing per change.
func TestSuspendResumeAllocsIndependentOfTimeline(t *testing.T) {
	cycleAllocs := func(changes []availability.Change) float64 {
		sim := avSim(t, 16, sched.Equipartition{}, nil, changes, ReconfigCost{})
		k := 0
		return testing.AllocsPerRun(100, func() {
			idleCycle(t, sim, k)
			if !sim.capStopped {
				t.Fatal("member not suspended after draining")
			}
			k++
		})
	}
	changes := make([]availability.Change, 2000)
	for i := range changes { // all beyond the 101 cycles × 25 s measured
		changes[i] = availability.Change{At: 1e4 + float64(i), Capacity: 8 + 8*(i%2), NoticeS: 0.5}
	}
	fixed, volatile := cycleAllocs(nil), cycleAllocs(changes)
	if volatile != fixed {
		t.Errorf("%v allocs per idle cycle on a 2000-change timeline, %v on a fixed pool", volatile, fixed)
	}
}
