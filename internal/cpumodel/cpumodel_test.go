package cpumodel

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dpsim/internal/eventq"
	"dpsim/internal/rng"
)

func idleParams() Params {
	return Params{Power: 1, MinAvailable: 0.05, Sharing: true, CommOverhead: true}
}

func TestSingleJobRunsAtFullPower(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	var doneAt eventq.Time
	c.Submit(2*eventq.Second, func() { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(2*eventq.Second) {
		t.Fatalf("job finished at %v, want 2s", doneAt)
	}
	if c.WorkDone() != 2 {
		t.Fatalf("WorkDone = %v, want 2", c.WorkDone())
	}
}

func TestPowerScalesDuration(t *testing.T) {
	q := eventq.New()
	p := idleParams()
	p.Power = 0.5
	c := New(q, 0, p)
	var doneAt eventq.Time
	c.Submit(eventq.Second, func() { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(2*eventq.Second) {
		t.Fatalf("half-power job finished at %v, want 2s", doneAt)
	}
}

func TestTwoJobsShareProcessor(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	var aDone, bDone eventq.Time
	c.Submit(eventq.Second, func() { aDone = q.Now() })
	c.Submit(eventq.Second, func() { bDone = q.Now() })
	q.Run(0)
	// Both share the CPU: each runs at 1/2 rate and finishes at 2s.
	if aDone != eventq.Time(2*eventq.Second) || bDone != eventq.Time(2*eventq.Second) {
		t.Fatalf("shared jobs finished at %v and %v, want 2s each", aDone, bDone)
	}
}

func TestShorterJobFreesCapacity(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	var aDone, bDone eventq.Time
	c.Submit(2*eventq.Second, func() { aDone = q.Now() })
	c.Submit(eventq.Second, func() { bDone = q.Now() })
	q.Run(0)
	// B (1s work) at half rate finishes at t=2; A then has 1s left at
	// full rate → t=3.
	if bDone != eventq.Time(2*eventq.Second) {
		t.Fatalf("B finished at %v, want 2s", bDone)
	}
	if aDone != eventq.Time(3*eventq.Second) {
		t.Fatalf("A finished at %v, want 3s", aDone)
	}
}

func TestLateArrivalSlowsRunning(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	var aDone eventq.Time
	c.Submit(eventq.Second, func() { aDone = q.Now() })
	q.After(500*eventq.Millisecond, func() {
		c.Submit(eventq.Second, func() {})
	})
	q.Run(0)
	// A does 0.5s of work alone, then shares: remaining 0.5s at half rate
	// takes 1s → finishes at 1.5s.
	if aDone != eventq.Time(1500*eventq.Millisecond) {
		t.Fatalf("A finished at %v, want 1.5s", aDone)
	}
}

func TestSharingDisabledAblation(t *testing.T) {
	q := eventq.New()
	p := idleParams()
	p.Sharing = false
	c := New(q, 0, p)
	var times []eventq.Time
	for i := 0; i < 4; i++ {
		c.Submit(eventq.Second, func() { times = append(times, q.Now()) })
	}
	q.Run(0)
	for _, at := range times {
		if at != eventq.Time(eventq.Second) {
			t.Fatalf("non-shared job finished at %v, want 1s", at)
		}
	}
}

func TestCommOverheadSlowsComputation(t *testing.T) {
	q := eventq.New()
	p := idleParams()
	p.RecvOverhead = 0.25
	c := New(q, 0, p)
	c.SetTransfers(2, 0) // two active receives: available = 0.5
	var doneAt eventq.Time
	c.Submit(eventq.Second, func() { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(2*eventq.Second) {
		t.Fatalf("job under comm load finished at %v, want 2s", doneAt)
	}
}

func TestRecvCostlierThanSend(t *testing.T) {
	p := Defaults()
	if p.RecvOverhead <= p.SendOverhead {
		t.Fatalf("defaults must make receive (%v) costlier than send (%v)",
			p.RecvOverhead, p.SendOverhead)
	}
}

func TestCommOverheadDisabledAblation(t *testing.T) {
	q := eventq.New()
	p := idleParams()
	p.CommOverhead = false
	p.RecvOverhead = 0.5
	c := New(q, 0, p)
	c.SetTransfers(10, 10)
	var doneAt eventq.Time
	c.Submit(eventq.Second, func() { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(eventq.Second) {
		t.Fatalf("job finished at %v with overhead disabled, want 1s", doneAt)
	}
}

func TestMinAvailableFloor(t *testing.T) {
	q := eventq.New()
	p := idleParams()
	p.RecvOverhead = 0.2
	p.MinAvailable = 0.1
	c := New(q, 0, p)
	c.SetTransfers(50, 0) // would be -9.0 without the floor
	if avail := c.Available(); avail != 0.1 {
		t.Fatalf("Available = %v, want floor 0.1", avail)
	}
	var doneAt eventq.Time
	c.Submit(eventq.Second, func() { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(10*eventq.Second) {
		t.Fatalf("floored job finished at %v, want 10s", doneAt)
	}
}

func TestTransferEndSpeedsUp(t *testing.T) {
	q := eventq.New()
	p := idleParams()
	p.RecvOverhead = 0.5
	c := New(q, 0, p)
	c.SetTransfers(1, 0) // available = 0.5
	var doneAt eventq.Time
	c.Submit(eventq.Second, func() { doneAt = q.Now() })
	q.After(eventq.Second, func() { c.SetTransfers(0, 0) })
	q.Run(0)
	// 0.5s of work in the first second, remaining 0.5s at full rate.
	if doneAt != eventq.Time(1500*eventq.Millisecond) {
		t.Fatalf("job finished at %v, want 1.5s", doneAt)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	fired := false
	c.Submit(0, func() { fired = true })
	q.Run(0)
	if !fired || q.Now() != 0 {
		t.Fatalf("zero-work job: fired=%v at %v", fired, q.Now())
	}
	if c.Active() != 0 {
		t.Fatal("zero-work job left active count non-zero")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	c.Submit(eventq.Second, nil)
	q.After(5*eventq.Second, func() {
		c.Submit(eventq.Second, nil)
	})
	q.Run(0)
	if bt := c.BusyTime(); math.Abs(bt-2) > 1e-9 {
		t.Fatalf("BusyTime = %v, want 2", bt)
	}
}

func TestActiveCount(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, idleParams())
	c.Submit(eventq.Second, nil)
	c.Submit(eventq.Second, nil)
	if c.Active() != 2 {
		t.Fatalf("Active = %d, want 2", c.Active())
	}
	q.Run(0)
	if c.Active() != 0 {
		t.Fatalf("Active after drain = %d", c.Active())
	}
}

// Property: total completed work equals the sum of submitted work, and
// with processor sharing the node never completes faster than the total
// work divided by power.
func TestPropertyWorkConservation(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%12) + 1
		q := eventq.New()
		c := New(q, 0, idleParams())
		var total float64
		rnd := seed
		next := func(mod int) int {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			v := int(rnd>>33) % mod
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := 0; i < k; i++ {
			ms := next(3000) + 1
			total += float64(ms) / 1000
			c.Submit(eventq.Duration(ms)*eventq.Millisecond, nil)
		}
		q.Run(0)
		elapsed := q.Now().Seconds()
		return math.Abs(c.WorkDone()-total) < 1e-6 &&
			elapsed >= total-1e-6 && // can't beat the work-conservation bound
			math.Abs(elapsed-total) < 1e-3 // PS is work-conserving: all jobs done by sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestManyJobsDeterministic(t *testing.T) {
	run := func() eventq.Time {
		q := eventq.New()
		c := New(q, 0, idleParams())
		for i := 0; i < 100; i++ {
			d := eventq.Duration(i%7+1) * eventq.Millisecond
			i := i
			q.At(eventq.Time(i)*10, func() { c.Submit(d, nil) })
		}
		q.Run(0)
		return q.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic completion: %v vs %v", a, b)
	}
}

func BenchmarkProcessorSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := eventq.New()
		c := New(q, 0, idleParams())
		for j := 0; j < 200; j++ {
			j := j
			q.At(eventq.Time(j)*eventq.Time(eventq.Millisecond), func() {
				c.Submit(eventq.Duration(j%17+1)*eventq.Millisecond, nil)
			})
		}
		q.Run(0)
	}
}

// --- differential reference: the processor model this package shipped
// before the ordered-slice rewrite, kept verbatim (map of jobs, per-reflow
// sorted id slice, Cancel + After with a fresh closure per running job) as
// the oracle the production model must match event for event. ---

type refJob struct {
	id        uint64
	total     float64
	remaining float64
	rate      float64
	last      eventq.Time
	finish    *eventq.Event
	done      func()
}

type refCPU struct {
	q            *eventq.Queue
	p            Params
	nextID       uint64
	jobs         map[uint64]*refJob
	nIn, nOut    int
	workDone     float64
	busySince    eventq.Time
	busyIntegral float64
}

func (c *refCPU) available() float64 {
	if !c.p.CommOverhead {
		return 1
	}
	avail := 1 - float64(c.nIn)*c.p.RecvOverhead - float64(c.nOut)*c.p.SendOverhead
	if avail < c.p.MinAvailable {
		avail = c.p.MinAvailable
	}
	return avail
}

func (c *refCPU) SetTransfers(in, out int) {
	if in == c.nIn && out == c.nOut {
		return
	}
	c.nIn, c.nOut = in, out
	c.reflow()
}

func (c *refCPU) submit(work eventq.Duration, done func()) {
	if work <= 0 {
		j := &refJob{id: c.nextID, done: done}
		c.nextID++
		c.q.After(0, func() {
			if j.done != nil {
				j.done()
			}
		})
		return
	}
	j := &refJob{id: c.nextID, total: work.Seconds(), remaining: work.Seconds(), last: c.q.Now(), done: done}
	c.nextID++
	if len(c.jobs) == 0 {
		c.busySince = c.q.Now()
	}
	c.jobs[j.id] = j
	c.reflow()
}

func (c *refCPU) rateOf() float64 {
	avail := c.available() * c.p.Power
	if !c.p.Sharing || len(c.jobs) <= 1 {
		return avail
	}
	return avail / float64(len(c.jobs))
}

func (c *refCPU) reflow() {
	now := c.q.Now()
	rate := c.rateOf()
	ids := make([]uint64, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		j := c.jobs[id]
		dt := (now - j.last).Seconds()
		if dt > 0 && j.rate > 0 {
			j.remaining -= j.rate * dt
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
		j.last = now
		j.rate = rate
		if j.finish != nil {
			c.q.Cancel(j.finish)
			j.finish = nil
		}
		jj := j
		eta := eventq.DurationOf(j.remaining / rate)
		j.finish = c.q.After(eta, func() { c.complete(jj) })
	}
}

func (c *refCPU) complete(j *refJob) {
	c.workDone += j.total
	delete(c.jobs, j.id)
	if len(c.jobs) == 0 {
		c.busyIntegral += (c.q.Now() - c.busySince).Seconds()
	}
	done := j.done
	j.done = nil
	c.reflow()
	if done != nil {
		done()
	}
}

// cpuOp is one scripted call: a Submit (with the submits its completion
// callback issues in turn, re-entering the model from inside complete) or,
// when transfers is set, a SetTransfers.
type cpuOp struct {
	at        eventq.Time
	work      eventq.Duration
	then      []cpuOp
	transfers bool
	in, out   int
}

// cpuScript draws a seeded random script: bursts at one instant, zero-work
// jobs, work from nanoseconds to tens of milliseconds — half of it from
// four round values, so that jobs of one burst tie on their completion
// instant and only the reschedule order decides who fires first —
// transfer-count changes (including ones that floor the available power)
// and follow-up submits from completion callbacks.
func cpuScript(seed uint64, k int) []cpuOp {
	src := rng.New(seed)
	var gen func(depth int) cpuOp
	gen = func(depth int) cpuOp {
		var op cpuOp
		switch src.Intn(5) {
		case 0: // zero work
		case 1, 2:
			op.work = eventq.Duration(src.Intn(4)+1) * 5 * eventq.Millisecond
		default:
			op.work = eventq.Duration(src.Intn(30_000_000)) + 1
		}
		for depth < 2 && src.Intn(4) == 0 {
			op.then = append(op.then, gen(depth+1))
		}
		return op
	}
	var at eventq.Time
	ops := make([]cpuOp, k)
	for i := range ops {
		if src.Intn(3) > 0 { // one in three joins the previous instant's burst
			at += eventq.Time(src.Intn(8_000_000))
		}
		if src.Intn(3) == 0 {
			ops[i] = cpuOp{transfers: true, in: src.Intn(14), out: src.Intn(6)}
		} else {
			ops[i] = gen(0)
		}
		ops[i].at = at
	}
	return ops
}

// playCPU runs script against either model and returns the completion log
// (script-order job number and instant, in firing order).
func playCPU(q *eventq.Queue, script []cpuOp, submit func(eventq.Duration, func()), setTransfers func(in, out int)) []string {
	var log []string
	jobs := 0
	var issue func(op cpuOp)
	issue = func(op cpuOp) {
		n := jobs
		jobs++
		submit(op.work, func() {
			log = append(log, fmt.Sprintf("job %d done at=%d", n, q.Now()))
			for _, next := range op.then {
				issue(next)
			}
		})
	}
	for _, op := range script {
		op := op
		q.At(op.at, func() {
			if op.transfers {
				setTransfers(op.in, op.out)
			} else {
				issue(op)
			}
		})
	}
	q.Run(0)
	return log
}

func TestReflowMatchesReference(t *testing.T) {
	full := Params{Power: 1.3, RecvOverhead: 0.08, SendOverhead: 0.035, MinAvailable: 0.05, Sharing: true, CommOverhead: true}
	noSharing, noOverhead := full, full
	noSharing.Sharing = false
	noOverhead.CommOverhead = false
	for name, p := range map[string]Params{"full": full, "no-sharing": noSharing, "no-comm-overhead": noOverhead} {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				script := cpuScript(seed, 80)

				rq := eventq.New()
				ref := &refCPU{q: rq, p: p, jobs: map[uint64]*refJob{}}
				want := playCPU(rq, script, ref.submit, ref.SetTransfers)

				q := eventq.New()
				c := New(q, 0, p)
				got := playCPU(q, script, func(w eventq.Duration, done func()) { c.Submit(w, done) }, c.SetTransfers)

				if q.Fired() != rq.Fired() || q.Now() != rq.Now() {
					t.Fatalf("seed %d: fired %d events ending at %v, reference %d ending at %v",
						seed, q.Fired(), q.Now(), rq.Fired(), rq.Now())
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d completions, reference %d", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d: completion %d = %q, reference %q", seed, i, got[i], want[i])
					}
				}
				if c.WorkDone() != ref.workDone || c.BusyTime() != ref.busyIntegral || c.Active() != 0 {
					t.Fatalf("seed %d: work %v busy %v active %d, reference work %v busy %v",
						seed, c.WorkDone(), c.BusyTime(), c.Active(), ref.workDone, ref.busyIntegral)
				}
			}
		})
	}
}

// TestReflowZeroAllocSteadyState: with the set of running jobs fixed, a
// rate change (a transfer starting or ending on the node) moves each job's
// one completion event and allocates nothing.
func TestReflowZeroAllocSteadyState(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, Defaults())
	for j := 0; j < 32; j++ {
		c.Submit(eventq.Duration(j+1)*1000*eventq.Second, nil)
	}
	now, in := q.Now(), 0
	if allocs := testing.AllocsPerRun(100, func() {
		now += eventq.Time(eventq.Millisecond)
		q.RunUntil(now) // no completion is due: only the clock moves
		in = 1 - in
		c.SetTransfers(in, 0)
	}); allocs != 0 {
		t.Errorf("SetTransfers with 32 running jobs allocates %v/op, want 0", allocs)
	}
	if c.Active() != 32 {
		t.Fatalf("%d jobs running, want 32", c.Active())
	}
}

// TestSubmitZeroAllocSteadyState: a finished job returns to its CPU's free
// list with its event and callback, so once the pool is warm a Submit and
// its completion allocate nothing, zero-work jobs included.
func TestSubmitZeroAllocSteadyState(t *testing.T) {
	q := eventq.New()
	c := New(q, 0, Defaults())
	done := func() {}
	cycle := func() {
		c.Submit(eventq.Millisecond, done)
		c.Submit(0, done)
		c.Submit(2*eventq.Millisecond, done)
		q.Run(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Submit/complete cycle allocates %v/op, want 0", allocs)
	}
	if c.Active() != 0 {
		t.Fatalf("%d jobs still running", c.Active())
	}
}
