// Package cluster implements the paper's stated future work (§9): the
// simulation of "a cluster server running concurrently multiple, possibly
// different applications whose allocations of compute nodes vary
// dynamically over time".
//
// Applications are modeled by their phase profiles — per-phase serial work
// and a communication factor that determines dynamic efficiency as a
// function of the allocation — exactly the information the DPS simulator
// produces for a real application (paper Fig. 11). Phase time on p nodes
// is work/(p·eff(p)), with eff(p) = 1/(1 + comm·(p-1)).
//
// Scheduling policies live in internal/sched: the simulator invokes a
// sched.Scheduler at every arrival, phase boundary, departure and
// capacity change, handing it a snapshot of the usable pool and the
// active jobs and applying the returned per-job allocations. Any policy
// registered there (rigid FCFS, EASY backfilling, equipartition,
// fair-share, efficiency-greedy, hysteresis-throttled malleability, ...)
// plugs into this simulator unchanged.
package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"dpsim/internal/availability"
	"dpsim/internal/eventq"
	"dpsim/internal/obs"
	"dpsim/internal/sched"
)

// Phase, Job and Scheduler are defined by the scheduling subsystem; the
// aliases keep the cluster API self-contained for callers that never
// touch a policy directly.
type (
	// Phase is one stage of an application with roughly constant
	// parallel behavior (an LU iteration, a solver sweep, ...).
	Phase = sched.Phase
	// Job is one application submitted to the cluster.
	Job = sched.Job
	// Scheduler decides allocations; see sched.Scheduler for the
	// contract and sched.Register for adding policies.
	Scheduler = sched.Scheduler
)

// jobState is the simulator's own bookkeeping for one job from intake on:
// pending, active, then finished. An active job's phase, remaining work
// and allocation live only in its view (Sim.views), the sched.JobState
// the policy reads; jobState holds what the simulator alone uses.
type jobState struct {
	Job *Job
	// finished is the instant the job completed its last phase; -1 until
	// then.
	finished float64
	// rate is the progress rate at the view's (PhaseIdx, Alloc), cached
	// while both hold; rate > 0 only while the job runs.
	rate float64
	// last is the job's last settlement; it is kept current only while
	// the job holds nodes (a waiting job takes now when granted some).
	last eventq.Time
	// ev is the job's one event: its arrival, then each phase completion.
	// Once fired or cancelled it is recycled (eventq.RescheduleKeyed), so
	// rescheduling the phase completion at every scheduling event costs no
	// allocation; fn is its callback, bound at intake and rebound to the
	// phase completion at arrival.
	ev *eventq.Event
	fn func()
	// pausedUntil blocks progress while the job redistributes its data
	// after an allocation change (the reconfiguration-cost model).
	pausedUntil eventq.Time
	// firstStart is the instant the job first held nodes; -1 until then.
	firstStart float64
}

// --- the cluster simulation ---

// Event tiers: at equal instants capacity changes precede the time-series
// sample, the sample precedes arrivals, and arrivals precede phase
// completions — in both the closed (NewSim jobs) and the open (Inject)
// drive, which is what makes the two paths execute identical event
// sequences even at exact ties, and a sample always reads the post-change
// pool and the pre-arrival job set whatever the history of the run.
const (
	tierCapacity int8 = -3
	tierSample   int8 = -2
	tierArrival  int8 = -1
)

// Sim runs a workload on a malleable cluster under a scheduler.
//
// A Sim can be driven two ways: Run() executes the closed workload passed
// to NewSim to completion, while the step primitives — PeekNextEventTime,
// ProcessNextEvent and Inject — decompose the same event loop so an outer
// driver (an open arrival process, a co-simulation sharing the clock) can
// interleave job injections with event processing. Both paths execute the
// identical event sequence for the same inputs.
type Sim struct {
	nodes int
	sched Scheduler
	q     *eventq.Queue
	// jobs holds every job's state in intake order (NewSim's, then each
	// Inject's): Result's useful-work sum walks it in that order.
	jobs []*jobState

	started bool
	// actives holds the active jobs as a slice kept sorted by job ID —
	// the scheduler-visible order — maintained incrementally on arrival
	// and departure so reallocate never rebuilds or re-sorts it; point
	// lookups binary-search it (searchActive).
	actives  []*jobState
	finished []*jobState

	// views and oldAlloc are persistent arenas parallel to actives,
	// inserted into and deleted from alongside it: views holds each active
	// job's phase, remaining work and allocation — the one copy of them,
	// handed to the policy as is — and oldAlloc is each job's allocation
	// in force before the current pass. held is the holder set, bit i set
	// while oldAlloc[i] > 0, shifted alongside the arenas: settle, preempt,
	// reschedule and LoadInfo walk it, so a job waiting through a pass
	// costs one bit. allocBuf is the out-buffer the policy fills (it
	// becomes oldAlloc when the pass ends; reschedule zeroes the entries
	// of the one it retires, so it arrives zeroed) and next its holder
	// set, emitted by allocate; heldIdx is sched.State.Held, victims the
	// preemption scratch list. After warm-up a steady-state scheduling
	// event allocates nothing.
	views    []sched.JobState
	oldAlloc []int
	allocBuf []int
	held     bitset
	next     bitset
	heldIdx  []int
	victims  []int

	// Time-varying capacity: changes is the prefix pulled from the
	// timeline so far (none pulled and none to pull = the classic fixed
	// pool).
	changes  []availability.Change
	cost     ReconfigCost
	capNow   int // capacity currently in effect
	schedCap int // capacity offered to the scheduler (≤ capNow during a notice window)
	// abruptNodes is the not-yet-charged node count of the abrupt drop
	// being applied: the lost-work budget of the current reallocation.
	abruptNodes int
	// nextChange is the first change not yet applied: changes[:nextChange]
	// is the applied history (CapacityEvents, the capacity integral).
	nextChange int
	// Idle suspension: once every job has finished, the one pending
	// capacity event is cancelled (it can no longer affect an outcome);
	// Inject resumes the timeline with a catch-up.
	capStopped bool
	capacityCursor
	// lastJobEvent is the instant of the last arrival or phase completion:
	// the makespan of the workload, independent of capacity events that
	// may outlive the jobs.
	lastJobEvent eventq.Time

	// dirty marks that job or capacity events have fired at the current
	// instant without a scheduler invocation yet: ProcessNextEvent defers
	// the reallocation until the last same-instant event has been
	// processed, so a burst of k simultaneous events costs one coalesced
	// invocation instead of k (see docs/performance.md). The queue can
	// never drain while dirty — the flush runs inline before control
	// returns whenever the next pending event sits at a later instant.
	dirty bool

	reallocs int
	lostWork float64
	redistS  float64

	// Observability (internal/obs). probe is invoked through nil checks
	// at every state transition, so the disabled path costs one
	// not-taken branch per hook site and allocates nothing — the
	// zero-allocation steady-state contract is asserted with probe nil
	// AND with the built-in recorder attached (bounded amortized).
	probe obs.Probe
	// sampleDT > 0 schedules fixed-interval sampler events at t = k·dt
	// on their own tier; they read gauges and mutate nothing, so
	// Results and goldens stay bit-identical with sampling on.
	sampleDT      eventq.Duration
	sampleK       int64
	sampleEv      *eventq.Event
	sampleFn      func()
	sampleStopped bool
}

// NewSim creates a simulation of the given cluster size. Job IDs key the
// active list: no two jobs active at the same time may share one (the
// second one's arrival panics).
func NewSim(nodes int, sched Scheduler, jobs []*Job) (*Sim, error) {
	if nodes <= 0 {
		return nil, errors.New("cluster: need nodes")
	}
	if sched == nil {
		return nil, errors.New("cluster: need a scheduler")
	}
	s := &Sim{
		nodes: nodes, sched: sched, q: eventq.New(),
		jobs:     make([]*jobState, 0, len(jobs)),
		actives:  make([]*jobState, 0, len(jobs)),
		finished: make([]*jobState, 0, len(jobs)),
		heldIdx:  make([]int, 0, nodes), // holders' grants fit the pool
		capNow:   nodes, schedCap: nodes,
	}
	for _, j := range jobs {
		if err := s.intake(j); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// intake is the one entry path of a job, for NewSim and Inject alike: it
// validates the job, normalizes MaxNodes into [1, nodes], creates the
// job's state and schedules its arrival (on its own tier, so construction
// and mid-run intake yield the same event order).
func (s *Sim) intake(j *Job) error {
	if j == nil || len(j.Phases) == 0 {
		return errors.New("cluster: job has no phases")
	}
	if j.MaxNodes <= 0 || j.MaxNodes > s.nodes {
		j.MaxNodes = s.nodes
	}
	at := eventq.Time(eventq.DurationOf(j.Arrival))
	if at < s.q.Now() {
		return fmt.Errorf("cluster: job %d arrives at %v, before now %v", j.ID, at, s.q.Now())
	}
	js := &jobState{Job: j, finished: -1, firstStart: -1}
	js.fn = func() { s.arrive(js) }
	js.ev = s.q.AtTier(at, tierArrival, js.fn)
	s.jobs = append(s.jobs, js)
	return nil
}

// SetReconfigCost installs the reconfiguration-cost model. It must be
// called before the first event is processed.
func (s *Sim) SetReconfigCost(c ReconfigCost) error {
	if s.started {
		return errors.New("cluster: SetReconfigCost after the simulation started")
	}
	if c.RedistributionSPerNode < 0 || c.LostWorkS < 0 {
		return errors.New("cluster: negative reconfiguration costs")
	}
	s.cost = c
	return nil
}

// SetCapacityTimeline installs the pool's capacity timeline as a cursor
// (availability.Spec.Timeline): the simulation pulls each change only as
// its clock approaches it, so a run that ends early never generates the
// rest of the horizon. Each change pulled is checked as
// SetCapacityChanges checks its slice. A change that fails the check, or
// a timeline over its budget, ends the timeline there; the run goes on at
// the capacity reached and Err reports the error. It must be called
// before the first event is processed.
func (s *Sim) SetCapacityTimeline(tl *availability.Timeline) error {
	if s.started {
		return errors.New("cluster: SetCapacityTimeline after the simulation started")
	}
	s.setTimeline(tl)
	return nil
}

// SetCapacityChanges installs the pool's whole capacity timeline from a
// slice (for example from availability.Spec.Generate), checking each
// change as it would a pulled one. Changes must be sorted by At with
// capacities in [0, nodes]; drops with NoticeS > 0 are announced that far
// in advance so the scheduler can drain the doomed nodes gracefully, and
// all of them must carry the same notice, as a generated timeline's do.
// It must be called before the first event is processed.
func (s *Sim) SetCapacityChanges(changes []availability.Change) error {
	if s.started {
		return errors.New("cluster: SetCapacityChanges after the simulation started")
	}
	s.setTimeline(nil)
	s.changes = changes
	for i := range changes {
		if err := s.admit(i); err != nil {
			s.setTimeline(nil)
			return err
		}
	}
	return nil
}

// Err reports the error that ended the capacity timeline early (see
// SetCapacityTimeline); nil if none did. A run with an error is not a
// run of its scenario.
func (s *Sim) Err() error { return s.capErr }

// SetProbe attaches an observability probe (see internal/obs): typed
// callbacks fire at every state transition — job arrive/first-start/
// phase-done/finish, scheduler invocation, capacity notice/change,
// preemption, reconfiguration charges. A nil probe (the default) makes
// every hook site a single not-taken branch; probes never receive
// mutable simulator state, so attaching one cannot change a Result. It
// must be called before the first event is processed.
func (s *Sim) SetProbe(p obs.Probe) error {
	if s.started {
		return errors.New("cluster: SetProbe after the simulation started")
	}
	s.probe = p
	return nil
}

// SetSampleInterval enables fixed-interval time-series sampling: every
// dt seconds of virtual time the attached probe's TimeSample hook
// receives the cluster's gauges (queue depth, running jobs, allocated
// vs. available nodes, instantaneous utilization). Samples ride the
// event queue on their own tier — after the instant's capacity changes,
// before its arrivals — and stop when the workload drains
// (Inject resumes them on the same t = k·dt grid), so sampling never
// stretches a run or perturbs its outcome. It must be called before the
// first event is processed and has no effect without a probe.
func (s *Sim) SetSampleInterval(dtSeconds float64) error {
	if s.started {
		return errors.New("cluster: SetSampleInterval after the simulation started")
	}
	if dtSeconds <= 0 {
		return errors.New("cluster: sample interval must be > 0")
	}
	s.sampleDT = eventq.DurationOf(dtSeconds)
	return nil
}

// start arms the capacity timeline and the sampler, exactly once. It is
// invoked lazily by every driving entry point, after the Set* options
// can no longer change.
func (s *Sim) start() {
	if s.started {
		return
	}
	s.started = true
	s.pullPast(s.q.Now().Add(s.notice()))
	if len(s.changes) > 0 { // a fixed pool allocates and schedules nothing
		s.fn = s.fireCapacity
		s.armCapacity()
	}
	if s.probe != nil && s.sampleDT > 0 {
		// Bind the sampler callback once; every reschedule recycles the
		// event object, so steady-state sampling allocates nothing.
		s.sampleFn = s.fireSample
		s.sampleEv = s.q.AtTier(0, tierSample, s.sampleFn)
	}
}

// fireSample reads the cluster's gauges into the probe's TimeSample
// hook and reschedules itself on the t = k·dt grid while work remains.
// It mutates no simulation state, so runs with sampling enabled stay
// bit-identical to probe-free runs.
func (s *Sim) fireSample() {
	li := s.LoadInfo()
	util := 0.0
	if li.Capacity > 0 {
		util = float64(li.Allocated) / float64(li.Capacity)
	}
	s.probe.TimeSample(obs.Sample{
		T: s.q.Now().Seconds(), Waiting: li.Waiting, Running: li.Running,
		Allocated: li.Allocated, Available: li.Capacity, Utilization: util,
	})
	if len(s.finished) == len(s.jobs) || (s.q.Len() == 0 && !s.dirty) {
		// Nothing left to observe — every job finished, or the ones left
		// are stranded with no event pending that could move them: let
		// the event loop drain. Inject resumes the grid.
		s.sampleStopped = true
		return
	}
	s.armSample()
}

// armSample schedules the next sample at the first point of the t = k·dt
// grid after the last sample and not before now — instants that elapsed
// while the cluster was idle are skipped, keeping sample times
// deterministic for a given event history.
func (s *Sim) armSample() {
	s.sampleStopped = false
	dt := int64(s.sampleDT)
	now := int64(s.q.Now())
	k := now / dt
	if k*dt < now {
		k++
	}
	if k <= s.sampleK {
		k = s.sampleK + 1
	}
	s.sampleK = k
	s.sampleEv = s.q.ReuseAtTier(s.sampleEv, eventq.Time(k*dt), tierSample, s.sampleFn)
}

// PeekNextEventTime reports the virtual instant of the next pending
// simulation event, and false when the simulation has no pending work.
// Drivers use it to decide whether an external arrival precedes the next
// internal event (the shared-clock decomposition).
func (s *Sim) PeekNextEventTime() (eventq.Time, bool) {
	s.start()
	return s.q.NextTime()
}

// ProcessNextEvent fires the earliest pending event, advancing the clock.
// It reports false when no events remain.
//
// Scheduler invocations are coalesced per instant: job and capacity
// events mark the simulation dirty, and the single reallocation fires
// after the last same-instant event — within the same ProcessNextEvent
// call — so stepped drivers still observe fully-settled state between
// calls whenever the next event sits at a later instant.
func (s *Sim) ProcessNextEvent() bool {
	s.start()
	if !s.q.Step() {
		return false
	}
	// The last event of a dirty instant flushes it: one reallocation
	// covering every job/capacity event that fired at it, then the
	// post-instant bookkeeping (the abrupt-drop lost-work budget expires,
	// an exhausted workload suspends the capacity timeline).
	if t, ok := s.q.NextTime(); s.dirty && (!ok || t != s.q.Now()) {
		s.dirty = false
		s.reallocate()
		s.abruptNodes = 0
		s.maybeSuspendCapacity()
	}
	return true
}

// Now returns the current virtual time of the simulation clock.
func (s *Sim) Now() eventq.Time { return s.q.Now() }

// LoadInfo is a read-only snapshot of the cluster's instantaneous load
// gauges — the same quantities the time-series sampler reads — for
// outer drivers that place work across clusters (internal/federation's
// routing policies).
type LoadInfo struct {
	// Nodes is the configured pool size (the NewSim argument).
	Nodes int
	// Capacity is the usable capacity currently in effect (≤ Nodes under
	// a volatile availability timeline).
	Capacity int
	// Waiting counts active jobs holding no nodes; Running counts jobs
	// holding at least one.
	Waiting int
	Running int
	// Allocated is the total nodes currently granted to jobs.
	Allocated int
}

// LoadInfo reads the cluster's current load gauges. It mutates nothing
// and allocates nothing, so routing layers may call it per arrival
// without perturbing the simulation or its steady-state allocation
// contract.
func (s *Sim) LoadInfo() LoadInfo {
	li := LoadInfo{Nodes: s.nodes, Capacity: s.capNow}
	for w, word := range s.held {
		for ; word != 0; word &= word - 1 {
			li.Running++
			li.Allocated += s.oldAlloc[w<<6|bits.TrailingZeros64(word)]
		}
	}
	li.Waiting = len(s.actives) - li.Running
	return li
}

// Inject adds a job while the simulation is running (an open arrival).
// The job's Arrival must not precede the current clock; its MaxNodes is
// normalized exactly as NewSim does for the initial workload. Its ID may
// not be that of a job still active when it arrives.
func (s *Sim) Inject(j *Job) error {
	s.start()
	if err := s.intake(j); err != nil {
		return err
	}
	if s.capStopped {
		s.resumeCapacity()
	}
	if s.sampleStopped {
		s.armSample()
	}
	return nil
}

// Run executes the workload and returns the outcome summary. It is the
// closed-loop composition of the step primitives.
func (s *Sim) Run() Result {
	for s.ProcessNextEvent() {
	}
	return s.Result()
}

// searchActive locates id in the ID-sorted active list. phaseDone calls
// it at every phase completion: the loop reads IDs through the views.
func (s *Sim) searchActive(id int) (int, bool) {
	lo, hi := 0, len(s.views)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.views[m].Job.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.views) && s.views[lo].Job.ID == id
}

// insertActive places a just-arrived (waiting) js into the ID-sorted
// active list and its arenas, its view at the start of phase 0. Two jobs
// active at once may not share an ID: the second one panics, naming it.
func (s *Sim) insertActive(js *jobState) {
	i, found := s.searchActive(js.Job.ID)
	if found {
		panic(fmt.Sprintf("cluster: job %d arrives at t=%v while another job with that ID is active",
			js.Job.ID, s.q.Now()))
	}
	s.actives = slices.Insert(s.actives, i, js)
	s.views = slices.Insert(s.views, i, sched.JobState{Job: js.Job, Remaining: js.Job.Phases[0].Work})
	s.oldAlloc = slices.Insert(s.oldAlloc, i, 0)
	s.held = s.held.insert(i, len(s.actives))
}

// removeActive drops the active job at index i.
func (s *Sim) removeActive(i int) {
	s.actives = slices.Delete(s.actives, i, i+1)
	s.views = slices.Delete(s.views, i, i+1)
	s.oldAlloc = slices.Delete(s.oldAlloc, i, i+1)
	s.held = s.held.remove(i, len(s.actives))
}

// bitset is a set of active-list indices, bit i of word i/64 for index i,
// one word per 64 active jobs: walking it costs O(active/64 + members),
// and inserting or deleting an index shifts it by one bit.
type bitset []uint64

// insert opens a zero bit at i, moving the bits from i up by one; n is
// the index count after the insert.
func (b bitset) insert(i, n int) bitset {
	if len(b) < (n+63)>>6 {
		b = append(b, 0)
	}
	w, low := i>>6, uint64(1)<<(i&63)-1
	carry := b[w] >> 63
	b[w] = b[w]&low | (b[w]&^low)<<1
	for k := w + 1; k < len(b); k++ {
		b[k], carry = b[k]<<1|carry, b[k]>>63
	}
	return b
}

// remove deletes bit i, moving the bits above it down by one; n is the
// index count after the delete.
func (b bitset) remove(i, n int) bitset {
	w, low := i>>6, uint64(1)<<(i&63)-1
	b[w] = b[w]&low | b[w]>>1&^low
	for k := w + 1; k < len(b); k++ {
		b[k-1] |= b[k] << 63
		b[k] >>= 1
	}
	return b[:(n+63)>>6]
}

// reallocate is the coalesced scheduling pass of a dirty instant, in the
// four stages ARCHITECTURE.md draws: settle, preempt, allocate,
// reschedule (which charges each changed allocation as it goes). It is the simulator's hot path and runs entirely on reused
// state: the ID-sorted active list and its arenas are maintained
// incrementally, the policy writes into a recycled buffer, and the phase
// events are recycled objects with callbacks bound at intake. Every stage
// dereferences a job's state only where it holds nodes before or after
// the pass. In steady state (no arrival, no completion) it performs zero
// heap allocations.
func (s *Sim) reallocate() {
	now := s.q.Now()
	if total := s.settle(now); total > s.schedCap {
		s.preempt(now, total)
	}
	wallNS, total := s.allocate(now)
	changed := s.reschedule(now)
	s.oldAlloc, s.allocBuf = s.allocBuf, s.oldAlloc
	s.held, s.next = s.next, s.held
	s.reallocs += changed
	if s.probe != nil {
		s.probe.SchedulerInvoke(now.Seconds(), obs.SchedulerInvocation{
			WallNS: wallNS, Changed: changed, Active: len(s.actives), Allocated: total,
		})
	}
}

// allocate is the third stage of reallocate: the policy call. The
// scheduler sees value snapshots in the persistent views arena, not the
// live bookkeeping: the views pin exactly the fields the allocation
// contract names, and no per-event boxing occurs. The policy fills
// allocBuf (zero on arrival, see reschedule) indexed like the views. It
// returns the call's wall time (read only with a probe attached) and the
// total allocation, having checked the sched.Scheduler contract: a grant
// outside [0, MaxNodes] or a sum above the usable nodes panics. The
// check is the pass's one walk over every active job; it emits next, the
// holder set of the new allocation.
func (s *Sim) allocate(now eventq.Time) (wallNS int64, total int) {
	if n := len(s.actives); cap(s.allocBuf) < n {
		s.allocBuf = make([]int, n)
	} else {
		s.allocBuf = s.allocBuf[:n]
	}
	st := sched.State{Nodes: s.schedCap, Now: now.Seconds(), Active: s.views, Held: s.heldIdx}
	if s.probe != nil {
		t0 := time.Now()
		s.sched.Allocate(st, s.allocBuf)
		wallNS = int64(time.Since(t0))
	} else {
		s.sched.Allocate(st, s.allocBuf)
	}
	if cap(s.next) < len(s.held) {
		s.next = make(bitset, len(s.held), cap(s.held))
	}
	s.next = s.next[:len(s.held)]
	n := len(s.allocBuf)
	for w := range s.next {
		var word uint64
		lo := w << 6
		for k, a := range s.allocBuf[lo:min(lo+64, n)] {
			// A zero grant is always in contract and skips the MaxNodes load.
			if a != 0 {
				if a < 0 || a > s.views[lo+k].Job.MaxNodes {
					s.breach(now, s.views[lo+k].Job, a)
				}
				total += a
				word |= 1 << k
			}
		}
		s.next[w] = word
	}
	if total > s.schedCap {
		panic(fmt.Sprintf("cluster: scheduler %s over-allocated %d of %d usable nodes at t=%v",
			s.sched.Name(), total, s.schedCap, now))
	}
	return wallNS, total
}

// breach is allocate's out-of-line panic for a grant outside [0, MaxNodes].
func (s *Sim) breach(now eventq.Time, j *Job, a int) {
	panic(fmt.Sprintf("cluster: scheduler %s granted job %d %d nodes outside [0, MaxNodes %d] at t=%v",
		s.sched.Name(), j.ID, a, j.MaxNodes, now))
}
