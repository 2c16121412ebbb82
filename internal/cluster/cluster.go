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
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"dpsim/internal/appmodel"
	"dpsim/internal/availability"
	"dpsim/internal/eventq"
	"dpsim/internal/lu"
	"dpsim/internal/obs"
	"dpsim/internal/rng"
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

// LUProfile derives a job profile from the LU application's per-iteration
// serial work (paper Fig. 11's baseline), with a communication factor that
// grows as iterations shrink — matching the measured efficiency decay.
// (Allocation bounds are a property of the Job, not the profile: set
// Job.MaxNodes on the job carrying these phases.)
func LUProfile(n, r int, costs lu.CostModel) []Phase {
	blocks := n / r
	phases := make([]Phase, blocks)
	for k := 0; k < blocks; k++ {
		work := lu.SerialWork(costs, n, r, k).Seconds()
		rem := float64(blocks - k)
		// Later iterations have less work per communication: comm factor
		// rises inversely with the remaining block count.
		comm := 0.08 + 0.25/math.Max(rem, 1)
		phases[k] = Phase{Work: work, Comm: comm}
	}
	return phases
}

// SyntheticProfile builds a uniform job for workload generators.
func SyntheticProfile(phases int, totalWork, comm float64) []Phase {
	out := make([]Phase, phases)
	for i := range out {
		out[i] = Phase{Work: totalWork / float64(phases), Comm: comm}
	}
	return out
}

// jobState is the simulator's bookkeeping for one active (running or
// waiting) job; the scheduler sees read-only sched.JobState snapshots of
// it, never the live struct.
type jobState struct {
	Job       *Job
	PhaseIdx  int
	Remaining float64 // work-seconds left in the current phase
	Alloc     int
	started   float64
	finished  float64
	rate      float64
	last      eventq.Time
	// ev is the job's phase-completion event. Once fired or cancelled it
	// is recycled through eventq.ReuseAfter, so rescheduling the phase
	// completion at every scheduling event costs no allocation; phaseFn
	// is the matching callback, bound once at arrival for the same
	// reason.
	ev      *eventq.Event
	phaseFn func()
	// pausedUntil blocks progress while the job redistributes its data
	// after an allocation change (the reconfiguration-cost model).
	pausedUntil eventq.Time
	// firstStart is the instant the job first held nodes; -1 until then.
	firstStart float64
}

// Phase returns the job's current phase.
func (js *jobState) Phase() Phase { return js.Job.Phases[js.PhaseIdx] }

// --- the cluster simulation ---

// ReconfigCost prices dynamic reconfiguration under time-varying capacity
// (and scheduler-driven resizing in general). The zero value makes every
// reconfiguration free, reproducing the cost-free simulator exactly.
type ReconfigCost struct {
	// RedistributionSPerNode pauses a running job for this many seconds
	// per node of allocation delta before it resumes at the new rate —
	// the data-redistribution time of growing or shrinking a malleable
	// application. Charged whenever a job running on p > 0 nodes is
	// resized to a different q > 0.
	RedistributionSPerNode float64
	// LostWorkS is the work-seconds of in-phase progress a job loses per
	// node reclaimed from it by an abrupt (no-notice) capacity drop — the
	// rollback to the last consistent state. The charge is capped at the
	// progress made in the current phase (earlier phases stay committed),
	// and the total nodes charged per event at the number actually
	// reclaimed (in job-ID order): allocation that merely migrates to
	// another job during the drop's rebalance is a redistribution, not a
	// loss.
	LostWorkS float64
}

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

// Result summarizes one simulated workload.
type Result struct {
	Scheduler    string
	Makespan     float64
	MeanResponse float64
	MaxResponse  float64
	// MeanWait is the mean time finished jobs spent between arrival and
	// first node allocation.
	MeanWait float64
	// Utilization is total useful serial work divided by nodes×makespan
	// (nodes = the full pool, counting unavailable capacity as waste).
	Utilization float64
	// AvailWeightedUtilization divides the same work by the integral of
	// the *available* capacity over [0, makespan]: utilization relative
	// to what the volatile pool actually offered. Equal to Utilization
	// when capacity never changes.
	AvailWeightedUtilization float64
	// MeanAllocEfficiency is the work-weighted dynamic efficiency.
	MeanAllocEfficiency float64
	// Unfinished counts jobs that arrived (or were scheduled) but did
	// not complete — e.g. stranded by a permanent capacity loss their
	// scheduler cannot work around.
	Unfinished int
	// Reallocations counts per-job allocation changes applied over the
	// run: admissions, resizes and preemptions. Changes are counted once
	// per coalesced scheduler invocation — the net delta across all
	// events of an instant — so a job admitted and resized within one
	// equal-instant burst counts once, not per event.
	Reallocations int
	// CapacityEvents counts the capacity changes applied to the pool.
	CapacityEvents int
	// LostWorkS totals the work-seconds rolled back by abrupt capacity
	// drops under the reconfiguration-cost model.
	LostWorkS float64
	// RedistributionS totals the per-job pause time charged for data
	// redistribution on allocation deltas.
	RedistributionS float64
	PerJob          []JobOutcome
}

// JobOutcome is one job's fate.
type JobOutcome struct {
	ID       int
	Arrival  float64
	Finish   float64
	Response float64
	// FirstStart is the instant the job first held nodes; Wait is
	// FirstStart-Arrival, the queueing delay before any progress.
	FirstStart float64
	Wait       float64
}

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
	jobs  []*Job

	started bool
	// actives holds the active jobs as a slice kept sorted by job ID —
	// the scheduler-visible order — maintained incrementally on arrival
	// and departure so reallocate never rebuilds or re-sorts it; point
	// lookups binary-search it (findActive).
	actives  []*jobState
	finished []*jobState
	effNum   float64
	effDen   float64

	// Scratch buffers owned by the scheduler-invocation hot path and
	// reused across events: the value-typed snapshot arena handed to the
	// policy, the allocation out-buffer it fills, the pre-event
	// allocation snapshot, and the preemption victim list. After warm-up
	// a steady-state scheduling event allocates nothing.
	views    []sched.JobState
	allocBuf []int
	oldAlloc []int
	victims  []*jobState

	// Time-varying capacity (empty changes = the classic fixed pool).
	changes  []availability.Change
	cost     ReconfigCost
	capNow   int // capacity currently in effect
	schedCap int // capacity offered to the scheduler (≤ capNow during a notice window)
	// abruptNodes is the not-yet-charged node count of the abrupt drop
	// being applied: the lost-work budget of the current reallocation.
	abruptNodes int
	capHist     []capStep
	// Idle suspension: once no job is active and no arrival is pending,
	// the one pending capacity event is cancelled (it can no longer affect
	// an outcome); Inject resumes the timeline with a catch-up.
	pendingArrivals int
	capStopped      bool
	nextChange      int
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

	reallocs  int
	capEvents int
	lostWork  float64
	redistS   float64

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

// capStep is one applied capacity change, recorded for the
// availability-weighted utilization integral.
type capStep struct {
	at  eventq.Time
	cap int
}

// NewSim creates a simulation of the given cluster size.
func NewSim(nodes int, sched Scheduler, jobs []*Job) (*Sim, error) {
	if nodes <= 0 {
		return nil, errors.New("cluster: need nodes")
	}
	if sched == nil {
		return nil, errors.New("cluster: need a scheduler")
	}
	for _, j := range jobs {
		if len(j.Phases) == 0 {
			return nil, fmt.Errorf("cluster: job %d has no phases", j.ID)
		}
		if j.MaxNodes <= 0 {
			j.MaxNodes = nodes
		}
		if j.MaxNodes > nodes {
			j.MaxNodes = nodes
		}
	}
	return &Sim{
		nodes: nodes, sched: sched, q: eventq.New(), jobs: jobs,
		actives:  make([]*jobState, 0, len(jobs)),
		finished: make([]*jobState, 0, len(jobs)),
		capNow:   nodes, schedCap: nodes,
	}, nil
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

// SetCapacityChanges installs the pool's capacity timeline (for example
// from availability.Spec.Generate). Changes must be sorted by At with
// capacities in [0, nodes]; drops with NoticeS > 0 are announced that far
// in advance so the scheduler can drain the doomed nodes gracefully. It
// must be called before the first event is processed.
func (s *Sim) SetCapacityChanges(changes []availability.Change) error {
	if s.started {
		return errors.New("cluster: SetCapacityChanges after the simulation started")
	}
	prev := 0.0
	for i, c := range changes {
		if c.At < 0 || c.At < prev {
			return fmt.Errorf("cluster: capacity change %d at %g out of order", i, c.At)
		}
		prev = c.At
		if c.Capacity < 0 || c.Capacity > s.nodes {
			return fmt.Errorf("cluster: capacity change %d to %d outside [0, %d]", i, c.Capacity, s.nodes)
		}
		if c.NoticeS < 0 {
			return fmt.Errorf("cluster: capacity change %d has negative notice", i)
		}
	}
	s.changes = changes
	return nil
}

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

// start schedules the arrivals of the jobs passed to NewSim, exactly
// once. It is invoked lazily by every driving entry point so that closed
// runs (Run) and stepped runs observe the same initial event sequence.
func (s *Sim) start() {
	if s.started {
		return
	}
	s.started = true
	if len(s.changes) > 0 {
		s.startCapacity()
	}
	for _, j := range s.jobs {
		j := j
		s.pendingArrivals++
		s.q.AtTier(eventq.Time(eventq.DurationOf(j.Arrival)), tierArrival, func() { s.arrive(j) })
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
	now := s.q.Now()
	var waiting, running, allocated int
	for _, js := range s.actives {
		if js.Alloc > 0 {
			running++
			allocated += js.Alloc
		} else {
			waiting++
		}
	}
	util := 0.0
	if s.capNow > 0 {
		util = float64(allocated) / float64(s.capNow)
	}
	s.probe.TimeSample(obs.Sample{
		T: now.Seconds(), Waiting: waiting, Running: running,
		Allocated: allocated, Available: s.capNow, Utilization: util,
	})
	if len(s.actives) == 0 && s.pendingArrivals == 0 {
		// Nothing left to observe: let the event loop drain. Inject
		// resumes the grid.
		s.sampleStopped = true
		return
	}
	s.sampleK++
	s.sampleEv = s.q.ReuseAtTier(s.sampleEv, eventq.Time(s.sampleK*int64(s.sampleDT)), tierSample, s.sampleFn)
}

// resumeSampling re-enters the t = k·dt sample grid at the first point
// not before now — instants that elapsed while the cluster was idle are
// skipped, keeping sample times deterministic for a given event history.
func (s *Sim) resumeSampling() {
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
	if s.dirty {
		s.maybeFlush()
	}
	return true
}

// markDirty defers the scheduler invocation for the current instant.
func (s *Sim) markDirty() { s.dirty = true }

// maybeFlush runs the coalesced reallocation unless another event is
// pending at the current instant (its effects belong in the same
// invocation). Called with s.dirty set.
func (s *Sim) maybeFlush() {
	if t, ok := s.q.NextTime(); ok && t == s.q.Now() {
		return
	}
	s.flushRealloc()
}

// flushRealloc performs the deferred reallocation for the instant: one
// scheduler invocation covering every job/capacity event that fired at
// it, then the post-instant bookkeeping (the abrupt-drop lost-work
// budget expires, an exhausted workload suspends the capacity timeline).
func (s *Sim) flushRealloc() {
	s.dirty = false
	s.reallocate()
	s.abruptNodes = 0
	s.maybeSuspendCapacity()
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
	for _, js := range s.actives {
		if js.Alloc > 0 {
			li.Running++
			li.Allocated += js.Alloc
		} else {
			li.Waiting++
		}
	}
	return li
}

// Inject adds a job while the simulation is running (an open arrival).
// The job's Arrival must not precede the current clock; its MaxNodes is
// normalized exactly as NewSim does for the initial workload.
func (s *Sim) Inject(j *Job) error {
	s.start()
	if j == nil || len(j.Phases) == 0 {
		return fmt.Errorf("cluster: injected job has no phases")
	}
	if j.MaxNodes <= 0 || j.MaxNodes > s.nodes {
		j.MaxNodes = s.nodes
	}
	at := eventq.Time(eventq.DurationOf(j.Arrival))
	if at < s.q.Now() {
		return fmt.Errorf("cluster: job %d arrives at %v, before now %v", j.ID, at, s.q.Now())
	}
	if s.capStopped {
		s.resumeCapacity()
	}
	if s.sampleStopped {
		s.resumeSampling()
	}
	s.jobs = append(s.jobs, j)
	s.pendingArrivals++
	s.q.AtTier(at, tierArrival, func() { s.arrive(j) })
	return nil
}

// Run executes the workload and returns the outcome summary. It is the
// closed-loop composition of the step primitives.
func (s *Sim) Run() Result {
	for s.ProcessNextEvent() {
	}
	return s.Result()
}

// Result summarizes the simulation so far: call it after Run, or after the
// stepped event loop drains, to collect the outcome. The makespan is the
// instant of the last job event (arrival or completion): capacity events
// outliving the workload do not stretch it.
func (s *Sim) Result() Result {
	res := Result{
		Scheduler: s.sched.Name(), Makespan: s.lastJobEvent.Seconds(),
		Reallocations: s.reallocs, CapacityEvents: s.capEvents,
		LostWorkS: s.lostWork, RedistributionS: s.redistS,
	}
	var sum, waitSum float64
	for _, js := range s.finished {
		resp := js.finished - js.Job.Arrival
		wait := js.firstStart - js.Job.Arrival
		if wait < 0 {
			wait = 0 // nanosecond arrival rounding can undercut the float instant
		}
		res.PerJob = append(res.PerJob, JobOutcome{
			ID: js.Job.ID, Arrival: js.Job.Arrival, Finish: js.finished, Response: resp,
			FirstStart: js.firstStart, Wait: wait,
		})
		sum += resp
		waitSum += wait
		if resp > res.MaxResponse {
			res.MaxResponse = resp
		}
	}
	slices.SortFunc(res.PerJob, func(a, b JobOutcome) int { return cmp.Compare(a.ID, b.ID) })
	if len(s.finished) > 0 {
		res.MeanResponse = sum / float64(len(s.finished))
		res.MeanWait = waitSum / float64(len(s.finished))
	}
	// Useful work is what was actually completed: the full profile of
	// finished jobs plus the settled progress of still-active ones.
	// Stranded or pending jobs must not inflate utilization. (With every
	// job finished this sums TotalWork over s.jobs in order, exactly the
	// fixed-pool computation.) The accumulation iterates s.jobs — its
	// order fixes the float sum's last bits — while membership comes from
	// a merged walk over the two ID-sorted views that already exist: the
	// just-sorted PerJob outcomes (the finished set) and the active list.
	// No lookup map, no per-job binary search; the cursors fall back to a
	// point search only if the workload's job IDs are out of order.
	res.Unfinished = len(s.jobs) - len(s.finished)
	var work float64
	fi, ai := 0, 0
	prevID := math.MinInt
	for _, j := range s.jobs {
		var js *jobState
		finished := false
		if j.ID < prevID { // out-of-order IDs: cursors are past this one
			_, finished = slices.BinarySearchFunc(res.PerJob, j.ID,
				func(o JobOutcome, id int) int { return cmp.Compare(o.ID, id) })
			if !finished {
				js = s.findActive(j.ID)
			}
		} else {
			prevID = j.ID
			for fi < len(res.PerJob) && res.PerJob[fi].ID < j.ID {
				fi++
			}
			finished = fi < len(res.PerJob) && res.PerJob[fi].ID == j.ID
			if !finished {
				for ai < len(s.actives) && s.actives[ai].Job.ID < j.ID {
					ai++
				}
				if ai < len(s.actives) && s.actives[ai].Job.ID == j.ID {
					js = s.actives[ai]
				}
			}
		}
		switch {
		case finished:
			work += j.TotalWork()
		case js != nil:
			completed := j.TotalWork() - js.Remaining
			for k := js.PhaseIdx + 1; k < len(j.Phases); k++ {
				completed -= j.Phases[k].Work
			}
			if completed > 0 {
				work += completed
			}
		}
	}
	if res.Makespan > 0 {
		res.Utilization = work / (float64(s.nodes) * res.Makespan)
		if avail := s.capacityIntegral(s.lastJobEvent); avail > 0 {
			res.AvailWeightedUtilization = work / avail
		}
	}
	if s.effDen > 0 {
		res.MeanAllocEfficiency = s.effNum / s.effDen
	}
	return res
}

// capacityIntegral is ∫₀ᵉⁿᵈ capacity(t) dt in node-seconds, from the
// applied capacity history. With no capacity events it reduces to the
// fixed pool's nodes×makespan, bit-identically.
func (s *Sim) capacityIntegral(end eventq.Time) float64 {
	if len(s.capHist) == 0 {
		return float64(s.nodes) * end.Seconds()
	}
	var integral float64
	level := s.nodes
	prev := eventq.Time(0)
	for _, st := range s.capHist {
		if st.at >= end {
			break
		}
		integral += float64(level) * (st.at - prev).Seconds()
		level = st.cap
		prev = st.at
	}
	if end > prev {
		integral += float64(level) * (end - prev).Seconds()
	}
	return integral
}

func (s *Sim) arrive(j *Job) {
	s.pendingArrivals--
	if s.probe != nil {
		s.probe.JobArrive(s.q.Now().Seconds(), j.ID)
	}
	js := &jobState{Job: j, Remaining: j.Phases[0].Work, started: s.q.Now().Seconds(), last: s.q.Now(), firstStart: -1}
	// Bind the phase-completion callback once: every later reschedule
	// reuses it (and the recycled event object) allocation-free.
	js.phaseFn = func() { s.phaseDone(js) }
	s.insertActive(js)
	s.lastJobEvent = s.q.Now()
	s.markDirty()
}

// searchActive locates id in the ID-sorted active list.
func (s *Sim) searchActive(id int) (int, bool) {
	return slices.BinarySearchFunc(s.actives, id,
		func(a *jobState, id int) int { return cmp.Compare(a.Job.ID, id) })
}

// findActive returns the active job with the given ID, nil if none.
func (s *Sim) findActive(id int) *jobState {
	if i, found := s.searchActive(id); found {
		return s.actives[i]
	}
	return nil
}

// insertActive places js into the ID-sorted active list, replacing any
// existing entry with the same (pathological, duplicate) job ID.
func (s *Sim) insertActive(js *jobState) {
	i, found := s.searchActive(js.Job.ID)
	if found {
		s.actives[i] = js
		return
	}
	s.actives = append(s.actives, nil)
	copy(s.actives[i+1:], s.actives[i:])
	s.actives[i] = js
}

// removeActive drops the job with the given ID from the sorted list.
func (s *Sim) removeActive(id int) {
	i, found := s.searchActive(id)
	if !found {
		return
	}
	copy(s.actives[i:], s.actives[i+1:])
	last := len(s.actives) - 1
	s.actives[last] = nil
	s.actives = s.actives[:last]
}

// grow returns buf resized to n, reusing its backing array when the
// capacity suffices — the scratch-buffer idiom of the hot path.
// Contents are unspecified; callers that need zeros must clear.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// reallocate settles progress, asks the scheduler, and reschedules phase
// completions. It is the simulator's hot path — invoked at every
// arrival, phase boundary, departure and capacity event — and runs
// entirely on reused state: the ID-sorted active list is maintained
// incrementally, the policy writes into a recycled buffer, and the phase
// events are recycled objects with callbacks bound at arrival. In steady
// state (no arrival, no completion) it performs zero heap allocations.
func (s *Sim) reallocate() {
	now := s.q.Now()
	// Settle in ID order: the efficiency counters are float accumulators,
	// and any other walk order would make their last bits depend on
	// iteration order, breaking bit-reproducibility across runs. The
	// sorted active list IS that order.
	// The same pass snapshots pre-event allocations: reconfiguration
	// costs are charged on the net per-job delta across the preemption
	// pass and the scheduler.
	n := len(s.actives)
	s.oldAlloc = grow(s.oldAlloc, n)
	total := 0
	for i, js := range s.actives {
		// Skip the settle arithmetic for jobs already settled at this
		// instant (a same-instant arrival, or a phase boundary that
		// credited its slice): dt is exactly zero.
		if js.last != now {
			dt := (now - progressStart(js, now)).Seconds()
			if dt > 0 && js.rate > 0 {
				done := js.rate * dt
				if done > js.Remaining {
					done = js.Remaining
				}
				js.Remaining -= done
				// Efficiency accounting: work done at current allocation.
				// The Model branch sits at the call site so the comm
				// formula inlines — this loop runs for every active job at
				// every scheduling event.
				if js.Alloc > 0 {
					s.effNum += done
					if m := js.Job.Model; m == nil {
						s.effDen += done / js.Phase().Efficiency(js.Alloc)
					} else {
						s.effDen += done / m.Efficiency(js.Phase().Work, js.Alloc)
					}
				}
			}
			js.last = now
		}
		s.oldAlloc[i] = js.Alloc
		total += js.Alloc
	}
	// Preemption pass: a capacity drop can leave more nodes allocated than
	// remain usable. Evict whole jobs — latest arrival first, ties broken
	// toward the highest ID — until the allocation fits; schedulers that
	// preserve running allocations (rigid, moldable) then see the evicted
	// jobs as waiting and re-admit them FCFS when space returns.
	if total > s.schedCap {
		s.victims = s.victims[:0]
		for _, js := range s.actives {
			if js.Alloc > 0 {
				s.victims = append(s.victims, js)
			}
		}
		slices.SortStableFunc(s.victims, func(a, b *jobState) int {
			switch {
			case a.Job.Arrival > b.Job.Arrival:
				return -1
			case a.Job.Arrival < b.Job.Arrival:
				return 1
			}
			return cmp.Compare(b.Job.ID, a.Job.ID)
		})
		for _, v := range s.victims {
			if total <= s.schedCap {
				break
			}
			total -= v.Alloc
			v.Alloc = 0
			if s.probe != nil {
				s.probe.Preempt(now.Seconds(), v.Job.ID)
			}
		}
	}
	// The scheduler sees value snapshots in a reused arena, not the live
	// bookkeeping: a policy can never corrupt simulator state, the views
	// pin exactly the fields the allocation contract names, and no
	// per-event boxing occurs. The policy fills allocBuf (zeroed here)
	// indexed like the views.
	s.views = grow(s.views, n)
	s.allocBuf = grow(s.allocBuf, n)
	for i, js := range s.actives {
		s.views[i] = sched.JobState{Job: js.Job, PhaseIdx: js.PhaseIdx, Remaining: js.Remaining, Alloc: js.Alloc}
		s.allocBuf[i] = 0
	}
	st := sched.State{Nodes: s.schedCap, Now: now.Seconds(), Active: s.views}
	// Wall-clock instrumentation of the policy call sits entirely behind
	// the probe check: the probe-nil path never reads the system clock.
	var wallNS int64
	if s.probe != nil {
		t0 := time.Now()
		s.sched.Allocate(st, s.allocBuf)
		wallNS = int64(time.Since(t0))
	} else {
		s.sched.Allocate(st, s.allocBuf)
	}
	total = 0
	for _, a := range s.allocBuf {
		total += a
	}
	if total > s.schedCap {
		panic(fmt.Sprintf("cluster: scheduler %s over-allocated %d of %d nodes", s.sched.Name(), total, s.schedCap))
	}
	reallocsBefore := s.reallocs
	for i, js := range s.actives {
		newA := s.allocBuf[i]
		if newA != s.oldAlloc[i] {
			s.reallocs++
			// Performance models may price their own reconfiguration
			// (checkpoint distance, migration pause); those charges ride
			// the same two cost paths as the cluster-wide model. The
			// assertion allocates nothing, and a zero-cost hook leaves the
			// charges bit-identical to the hook-free path.
			var hook appmodel.Reconfigurer
			if m := js.Job.Model; m != nil {
				hook, _ = m.(appmodel.Reconfigurer)
			}
			if s.abruptNodes > 0 && newA < s.oldAlloc[i] {
				perNode := s.cost.LostWorkS
				if hook != nil {
					perNode += hook.CheckpointLossS()
				}
				if perNode > 0 {
					// Rollback: in-phase progress on the reclaimed nodes is
					// gone; completed phases stay committed. Only the nodes
					// the event actually reclaimed are charged — shrink that
					// migrates allocation to another job is redistribution,
					// not loss.
					n := s.oldAlloc[i] - newA
					if n > s.abruptNodes {
						n = s.abruptNodes
					}
					s.abruptNodes -= n
					lost := perNode * float64(n)
					if done := js.Phase().Work - js.Remaining; lost > done {
						lost = done
					}
					if lost > 0 {
						js.Remaining += lost
						s.lostWork += lost
						if s.probe != nil {
							s.probe.ReconfigCharge(now.Seconds(), js.Job.ID, obs.ChargeLostWork, lost)
						}
					}
				}
			}
			if s.oldAlloc[i] > 0 && newA > 0 {
				delta := newA - s.oldAlloc[i]
				if delta < 0 {
					delta = -delta
				}
				pause := s.cost.RedistributionSPerNode * float64(delta)
				if hook != nil {
					pause += hook.MigrationS(s.oldAlloc[i], newA)
				}
				// Overlapping pauses coalesce (one redistribution at a
				// time); charge only the actual extension so the
				// accounting matches the dynamics.
				if pause > 0 {
					if until := now.Add(eventq.DurationOf(pause)); until > js.pausedUntil {
						from := js.pausedUntil
						if from < now {
							from = now
						}
						ext := eventq.Duration(until - from).Seconds()
						s.redistS += ext
						js.pausedUntil = until
						if s.probe != nil {
							s.probe.ReconfigCharge(now.Seconds(), js.Job.ID, obs.ChargeRedistribution, ext)
						}
					}
				}
			}
		}
		js.Alloc = newA
		if newA > 0 && js.firstStart < 0 {
			js.firstStart = now.Seconds()
			if s.probe != nil {
				s.probe.JobFirstStart(js.firstStart, js.Job.ID)
			}
		}
		if m := js.Job.Model; m == nil {
			js.rate = js.Phase().Rate(js.Alloc)
		} else {
			js.rate = m.Rate(js.Phase().Work, js.Alloc)
		}
		if js.rate > 0 {
			eta := eventq.DurationOf(js.Remaining / js.rate)
			if js.pausedUntil > now {
				eta += eventq.Duration(js.pausedUntil - now)
			}
			// The pending completion is moved in place (or the fired/
			// cancelled event object recycled); phaseFn was bound at
			// arrival. Zero allocations per reschedule.
			js.ev = s.q.RescheduleAfter(js.ev, eta, js.phaseFn)
		} else if js.ev != nil && js.ev.Scheduled() {
			s.q.Cancel(js.ev)
		}
	}
	if s.probe != nil {
		s.probe.SchedulerInvoke(now.Seconds(), obs.SchedulerInvocation{
			WallNS: wallNS, Changed: s.reallocs - reallocsBefore,
			Active: n, Allocated: total,
		})
	}
}

// progressStart is the instant from which a job has been progressing at
// its current rate: its last settlement, deferred past any redistribution
// pause still in force (never beyond now).
func progressStart(js *jobState, now eventq.Time) eventq.Time {
	from := js.last
	if js.pausedUntil > from {
		if js.pausedUntil < now {
			from = js.pausedUntil
		} else {
			from = now
		}
	}
	return from
}

func (s *Sim) phaseDone(js *jobState) {
	js.Remaining = 0
	// Credit the completed slice.
	now := s.q.Now()
	dt := (now - progressStart(js, now)).Seconds()
	if dt > 0 && js.rate > 0 && js.Alloc > 0 {
		done := js.rate * dt
		s.effNum += done
		if m := js.Job.Model; m == nil {
			s.effDen += done / js.Phase().Efficiency(js.Alloc)
		} else {
			s.effDen += done / m.Efficiency(js.Phase().Work, js.Alloc)
		}
	}
	js.last = now
	s.lastJobEvent = now
	if s.probe != nil {
		s.probe.PhaseDone(now.Seconds(), js.Job.ID, js.PhaseIdx, len(js.Job.Phases))
	}
	js.PhaseIdx++
	if js.PhaseIdx >= len(js.Job.Phases) {
		js.finished = now.Seconds()
		if s.probe != nil {
			s.probe.JobFinish(now.Seconds(), js.Job.ID)
		}
		s.removeActive(js.Job.ID)
		s.finished = append(s.finished, js)
	} else {
		js.Remaining = js.Job.Phases[js.PhaseIdx].Work
	}
	s.markDirty()
}

// PoissonWorkload generates a reproducible stream of LU-profile jobs with
// exponential inter-arrival times.
func PoissonWorkload(jobs, nodes int, meanInterarrival float64, seed uint64) []*Job {
	src := rng.New(seed)
	costs := lu.DefaultCostModel()
	sizes := []struct{ n, r int }{
		{1296, 162}, {1296, 108}, {648, 81}, {2592, 324},
	}
	var out []*Job
	t := 0.0
	for i := 0; i < jobs; i++ {
		t += src.Exp(meanInterarrival)
		sz := sizes[src.Intn(len(sizes))]
		maxN := 2 + src.Intn(nodes)
		out = append(out, &Job{
			ID:       i,
			Arrival:  t,
			Phases:   LUProfile(sz.n, sz.r, costs),
			MaxNodes: maxN,
		})
	}
	return out
}

// FitProfile converts per-iteration statistics produced by a simulated
// run (metrics.Iterations) into a job profile for the cluster scheduler:
// the per-phase serial work is taken verbatim and the communication
// factor is implied by the observed dynamic efficiency at the run's
// allocation, eff = 1/(1+c·(p-1)). This makes the §9 scenario literal:
// the scheduler's knowledge comes from the simulator's predictions.
func FitProfile(iters []IterLike) []Phase {
	out := make([]Phase, 0, len(iters))
	for _, it := range iters {
		comm := 0.0
		if it.Nodes > 1 && it.Efficiency > 0 && it.Efficiency <= 1 {
			comm = (1/it.Efficiency - 1) / float64(it.Nodes-1)
		}
		if comm < 0 {
			comm = 0
		}
		out = append(out, Phase{Work: it.SerialSeconds, Comm: comm})
	}
	return out
}

// IterLike is the subset of metrics.IterationStat the fit needs (declared
// here to keep the dependency direction metrics→cluster-free).
type IterLike struct {
	SerialSeconds float64
	Nodes         int
	Efficiency    float64
}

// Compare runs the same workload under every registered scheduling
// policy (default parameters), in sched.Names() order.
func Compare(nodes int, jobs []*Job) ([]Result, error) {
	var out []Result
	for _, name := range sched.Names() {
		policy, err := sched.New(name, nil)
		if err != nil {
			return nil, err
		}
		// Deep-copy jobs, phases included: the sim normalizes MaxNodes,
		// and a shared Phases backing array would let one run's state
		// alias another's — runs must be fully independent.
		cp := make([]*Job, len(jobs))
		for i, j := range jobs {
			jc := *j
			jc.Phases = append([]Phase(nil), j.Phases...)
			cp[i] = &jc
		}
		sim, err := NewSim(nodes, policy, cp)
		if err != nil {
			return nil, err
		}
		out = append(out, sim.Run())
	}
	return out, nil
}

// InvariantRunner adapts the cluster simulator to sched.CheckInvariants:
// it runs the policy over the given workload and capacity timeline with
// a non-zero reconfiguration cost (so the lost-work and redistribution
// paths are exercised too) and fingerprints the full Result.
func InvariantRunner(policy sched.Scheduler, nodes int, jobs []*sched.Job, changes []sched.CapacityChange) (out sched.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: simulation panicked: %v", r)
		}
	}()
	sim, err := NewSim(nodes, policy, jobs)
	if err != nil {
		return sched.Outcome{}, err
	}
	av := make([]availability.Change, len(changes))
	for i, c := range changes {
		av[i] = availability.Change{At: c.At, Capacity: c.Capacity, NoticeS: c.NoticeS}
	}
	if err := sim.SetCapacityChanges(av); err != nil {
		return sched.Outcome{}, err
	}
	if err := sim.SetReconfigCost(ReconfigCost{RedistributionSPerNode: 0.2, LostWorkS: 2}); err != nil {
		return sched.Outcome{}, err
	}
	res := sim.Run()
	return sched.Outcome{
		Fingerprint: fmt.Sprintf("%+v", res),
		Jobs:        len(jobs),
		Finished:    len(res.PerJob),
		Unfinished:  res.Unfinished,
	}, nil
}
