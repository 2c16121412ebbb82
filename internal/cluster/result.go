package cluster

import (
	"cmp"
	"slices"

	"dpsim/internal/eventq"
)

// Result summarizes one simulated workload: the run totals and each
// finished job's outcome, from which a sweep derives its response and
// wait statistics.
type Result struct {
	Makespan float64
	// Utilization is total useful serial work divided by nodes×makespan
	// (nodes = the full pool, counting unavailable capacity as waste).
	Utilization float64
	// AvailWeightedUtilization divides the same work by the integral of
	// the *available* capacity over [0, makespan]: utilization relative
	// to what the volatile pool actually offered. Equal to Utilization
	// when capacity never changes.
	AvailWeightedUtilization float64
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

// Result summarizes the simulation so far: call it after Run, or after the
// stepped event loop drains, to collect the outcome. The makespan is the
// instant of the last job event (arrival or completion): capacity events
// outliving the workload do not stretch it.
func (s *Sim) Result() Result {
	res := Result{
		Makespan: s.lastJobEvent.Seconds(), Unfinished: len(s.jobs) - s.finished,
		Reallocations: s.reallocs, CapacityEvents: s.nextChange,
		LostWorkS: s.lostWork, RedistributionS: s.redistS,
		PerJob: make([]JobOutcome, 0, s.finished),
	}
	for _, js := range s.jobs {
		if js.finished < 0 {
			continue
		}
		resp := js.finished - js.Job.Arrival
		wait := js.firstStart - js.Job.Arrival
		if wait < 0 {
			wait = 0 // nanosecond arrival rounding can undercut the float instant
		}
		res.PerJob = append(res.PerJob, JobOutcome{
			ID: js.Job.ID, Arrival: js.Job.Arrival, Finish: js.finished, Response: resp,
			FirstStart: js.firstStart, Wait: wait,
		})
	}
	slices.SortFunc(res.PerJob, func(a, b JobOutcome) int { return cmp.Compare(a.ID, b.ID) })
	if res.Makespan > 0 {
		work, avail := s.Usage(s.lastJobEvent)
		res.Utilization = work / (float64(s.nodes) * res.Makespan)
		if avail > 0 {
			res.AvailWeightedUtilization = work / avail
		}
	}
	return res
}

// workDone is the useful work js has completed: its full profile once
// finished, the settled progress of an active job (read from its view),
// nothing while its arrival is pending — stranded or pending jobs must
// not inflate utilization.
func (s *Sim) workDone(js *jobState) float64 {
	j := js.Job
	if js.finished >= 0 {
		return j.TotalWork()
	}
	i, found := s.searchActive(j.ID)
	if !found || s.actives[i] != js {
		return 0 // pending; a job with its ID may be active
	}
	v := &s.views[i]
	completed := j.TotalWork() - v.Remaining
	for k := v.PhaseIdx + 1; k < len(j.Phases); k++ {
		completed -= j.Phases[k].Work
	}
	return max(completed, 0)
}

// Makespan returns the instant of the last job event (arrival or
// completion): the end of Result's utilization integrals.
func (s *Sim) Makespan() eventq.Time { return s.lastJobEvent }

// Usage returns the useful work the pool has completed and its capacity
// integrated over [0, end], both in node-seconds: the numerator and
// denominator of AvailWeightedUtilization. Result evaluates them at the
// pool's own makespan; a federation sums them to the fleet's. The work
// is summed in intake order (which fixes the float sum's last bits);
// with every job finished it sums TotalWork over the workload. The
// integral follows the whole capacity timeline, applied or not, so it
// extends past the pool's last event (Usage pulls the timeline up to
// end); with no changes before end it is the fixed pool's nodes×end,
// bit-identically.
func (s *Sim) Usage(end eventq.Time) (work, capacity float64) {
	for _, js := range s.jobs {
		work += s.workDone(js)
	}
	s.pullPast(end - 1)
	level := s.nodes
	prev := eventq.Time(0)
	for _, c := range s.changes {
		at := changeAt(c)
		if at >= end {
			break
		}
		capacity += float64(float64(level) * (at - prev).Seconds())
		level = c.Capacity
		prev = at
	}
	if end > prev {
		capacity += float64(float64(level) * (end - prev).Seconds())
	}
	return work, capacity
}
