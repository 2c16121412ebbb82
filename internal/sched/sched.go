// Package sched is the scheduling-policy subsystem of the malleable
// cluster simulator: the Scheduler interface, the scheduler-visible views
// of cluster state, and a self-registering policy registry.
//
// The cluster simulator (internal/cluster) invokes a Scheduler at every
// arrival, phase boundary, departure and capacity change; the policy sees
// a State snapshot — the usable node count, the current virtual instant
// and one JobState view per active job — and returns a per-job allocation.
// Policies never mutate simulator state or the snapshot, so any policy
// that respects the allocation contract (see Scheduler) can be dropped
// into the simulator, the scenario layer and the sweep grid without
// touching them.
//
// Built-in policies, by rigidity class:
//
//   - rigid-fcfs, easy-backfill — rigid: each job runs at its requested
//     width (MaxNodes) from admission to completion.
//   - moldable, sjf-moldable — moldable: the width is chosen once, at
//     admission, and then held.
//   - equipartition, fair-share, efficiency-greedy,
//     malleable-hysteresis — malleable: allocations are recomputed at
//     every scheduling event.
//
// New policies self-register via Register (typically from an init
// function) and are then resolvable by name everywhere — scenario JSON,
// CLI flags, sweep grids — and certified for free by the one invariant
// harness, federation.CheckInvariants, which the sched tests run for
// every Names() entry on one-member and multi-member fleets.
package sched

import (
	"math"

	"dpsim/internal/appmodel"
)

// Phase is one stage of an application with roughly constant parallel
// behavior (an LU iteration, a solver sweep, ...).
type Phase struct {
	// Work is the phase's serial execution time in seconds.
	Work float64
	// Comm is the communication/imbalance factor: efficiency on p nodes
	// is 1/(1+Comm·(p-1)). Zero means perfectly parallel. It is ignored
	// when the owning Job carries a performance Model.
	Comm float64
}

// Efficiency returns the dynamic efficiency of the phase on p nodes
// under the Comm formula (appmodel.CommEfficiency). Jobs with an
// attached performance model override this curve: model-aware callers
// must branch on Job.Model like the built-in policies do
// (JobState.EstRemaining already does).
func (ph Phase) Efficiency(p int) float64 {
	return appmodel.CommEfficiency(ph.Comm, p)
}

// Rate returns the phase's progress in work-seconds per second on p
// nodes under the Comm formula. See Efficiency for the model caveat.
func (ph Phase) Rate(p int) float64 {
	return float64(p) * ph.Efficiency(p)
}

// Job is one application submitted to the cluster.
type Job struct {
	ID      int
	Arrival float64 // seconds
	Phases  []Phase
	// MaxNodes caps the allocation (rigid jobs always request MaxNodes).
	MaxNodes int
	// Weight biases proportional-share policies (fair-share): a job with
	// Weight 2 is entitled to twice the share of a job with Weight 1.
	// Zero means 1; policies that are not share-based ignore it.
	Weight float64
	// Model, when non-nil, is the job's application performance model
	// (internal/appmodel): every phase's rate and efficiency come from
	// it instead of the phase's Comm formula. The scenario layer sets it
	// for the sweep grid's appmodel axis; nil is the classic
	// communication-factor application. (Per-phase response variation is
	// expressed through Comm — the comm-factor family — so one model per
	// job covers the registered analytical families.)
	Model appmodel.AppModel
}

// TotalWork returns the job's serial running time.
func (j *Job) TotalWork() float64 {
	var w float64
	for _, ph := range j.Phases {
		w += ph.Work
	}
	return w
}

// JobState is the scheduler-visible view of one active job: a
// value-typed snapshot taken at the scheduling event. Alloc is the job's
// current allocation after any capacity preemption (0 = waiting).
type JobState struct {
	Job       *Job
	PhaseIdx  int
	Remaining float64 // work-seconds left in the current phase
	Alloc     int
}

// Phase returns the job's current phase.
func (js JobState) Phase() Phase { return js.Job.Phases[js.PhaseIdx] }

// RemainingWork returns the job's serial work left: the current phase's
// remainder plus every later phase.
func (js JobState) RemainingWork() float64 {
	w := js.Remaining
	for k := js.PhaseIdx + 1; k < len(js.Job.Phases); k++ {
		w += js.Job.Phases[k].Work
	}
	return w
}

// EstRemaining estimates the job's remaining runtime on p nodes: the
// current phase's remaining work plus every later phase, each at the
// phase's own dynamic-efficiency rate (or the job's performance model).
// This is the runtime estimate backfilling policies use — it comes
// straight from the per-phase work profile the DPS simulator predicts.
func (js JobState) EstRemaining(p int) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	// The model branch sits outside the phase walk so the comm formula
	// inlines: this loop covers every remaining phase, per candidate
	// width, per scheduling event.
	if m := js.Job.Model; m != nil {
		t := js.Remaining / m.Rate(js.Phase().Work, p)
		for k := js.PhaseIdx + 1; k < len(js.Job.Phases); k++ {
			t += js.Job.Phases[k].Work / m.Rate(js.Job.Phases[k].Work, p)
		}
		return t
	}
	t := js.Remaining / js.Phase().Rate(p)
	for k := js.PhaseIdx + 1; k < len(js.Job.Phases); k++ {
		t += js.Job.Phases[k].Work / js.Job.Phases[k].Rate(p)
	}
	return t
}

// State is the scheduler-visible cluster state at one scheduling event.
// Active, Held (and the out buffer paired with them) are owned by the
// caller and valid only for the duration of the Allocate call: the
// simulator reuses the backing arrays between events, so policies must
// not retain them. Both are read-only: the simulator keeps the active
// jobs' phase, remaining work and allocation in these views and nowhere
// else, so a write would change the run itself (the cluster package's
// arena contract test catches a policy that writes).
type State struct {
	// Nodes is the capacity usable right now: the current pool, already
	// shrunk by any outstanding reclaim notice.
	Nodes int
	// Now is the current virtual instant in seconds, for policies with
	// time-based throttles (epoch hysteresis).
	Now float64
	// Active lists the active jobs in ascending job-ID order.
	Active []JobState
	// Held lists, in ascending order, exactly the indices i of Active
	// with Active[i].Alloc > 0: the jobs holding nodes after any
	// preemption. Their allocations fit the pool, so there are at most
	// Nodes of them however long Active is: a policy walks Held, not
	// Active, to place the running jobs.
	Held []int
}

// Scheduler decides allocations. Allocate writes st.Active[i]'s node
// count into out[i] and must not write st.Active or st.Held (see
// State); the caller provides out with len(st.Active), zeroed, so a
// policy that grants a job nothing may simply skip it, and st.Held
// filled as State documents, so a policy may trust it. On
// return the counts must each lie in [0, MaxNodes] and sum to at most
// st.Nodes: the simulator checks every grant and panics on any
// out-of-contract allocation, naming the policy, the job and the instant.
//
// The buffer-reuse contract is what keeps the simulator's event loop
// allocation-free: the caller owns st.Active and out and recycles both
// across scheduling events, and policies are expected to keep their own
// working storage in reusable scratch buffers (constructed once per
// instance) rather than allocating per call. Policies may keep per-run
// state (hysteresis clocks, scratch buffers) — resolve a fresh instance
// per simulation.
//
// Policies that evaluate phase rates or efficiencies must respect the
// job's performance model: use JobState.EstRemaining (model-aware by
// construction), or branch on Job.Model like the built-in policies do.
type Scheduler interface {
	Name() string
	Allocate(st State, out []int)
}

// grow returns buf resized to n, reusing its backing array when the
// capacity suffices — the shared scratch-buffer idiom of the policies.
// Contents are unspecified; callers that need zeros must clear.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
