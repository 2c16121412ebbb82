package cluster

import (
	"cmp"
	"slices"

	"dpsim/internal/eventq"
	"dpsim/internal/obs"
	"dpsim/internal/sched"
)

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

// preempt is the second stage of reallocate, run only when a capacity
// drop leaves more nodes allocated (total) than remain usable. It evicts
// whole jobs — latest arrival first, ties broken toward the highest ID —
// until the allocation fits, records what it took (jobState.evicted, for
// the reschedule stage to charge) and drops them from heldIdx; schedulers
// that preserve running allocations (rigid, moldable) then see the
// evicted jobs as waiting and re-admit them FCFS when space returns.
func (s *Sim) preempt(now eventq.Time, total int) {
	s.victims = append(s.victims[:0], s.heldIdx...)
	slices.SortStableFunc(s.victims, func(i, k int) int {
		a, b := s.actives[i].Job, s.actives[k].Job
		switch {
		case a.Arrival > b.Arrival:
			return -1
		case a.Arrival < b.Arrival:
			return 1
		}
		return cmp.Compare(b.ID, a.ID)
	})
	for _, i := range s.victims {
		if total <= s.schedCap {
			break
		}
		v := &s.views[i]
		total -= v.Alloc
		s.actives[i].evicted, v.Alloc = v.Alloc, 0
		if s.probe != nil {
			s.probe.Preempt(now.Seconds(), v.Job.ID)
		}
	}
	held := s.heldIdx[:0]
	for _, i := range s.heldIdx {
		if s.views[i].Alloc > 0 {
			held = append(held, i)
		}
	}
	s.heldIdx = held
}

// charge prices one job's allocation change from old to alloc (the net
// delta of the instant) and records its first start; the reschedule stage
// calls it for every changed job, in ID order, before pricing its
// completion. A job's performance model prices its own reconfiguration
// (checkpoint distance, migration pause); those charges ride the same
// two cost paths as the cluster-wide model, and a zero-cost model leaves
// the charges bit-identical to a model-free job's.
func (s *Sim) charge(js *jobState, v *sched.JobState, old, alloc int, now eventq.Time) {
	m := js.Job.Model
	if s.abruptNodes > 0 && alloc < old {
		perNode := s.cost.LostWorkS
		if m != nil {
			perNode += m.CheckpointLossS()
		}
		if perNode > 0 {
			s.loseWork(v, perNode, old-alloc, now)
		}
	}
	if old > 0 && alloc > 0 {
		delta := alloc - old
		if delta < 0 {
			delta = -delta
		}
		pause := float64(s.cost.RedistributionSPerNode * float64(delta))
		if m != nil {
			pause += m.MigrationS()
		}
		if pause > 0 {
			s.pause(js, pause, now)
		}
	}
	if alloc > 0 && js.firstStart < 0 {
		js.firstStart = now.Seconds()
		if s.probe != nil {
			s.probe.JobFirstStart(js.firstStart, js.Job.ID)
		}
	}
}

// loseWork is the rollback of an abrupt drop: in-phase progress on the
// reclaimed nodes is gone; completed phases stay committed. Only the
// nodes the event actually reclaimed are charged — shrink that migrates
// allocation to another job is redistribution, not loss.
func (s *Sim) loseWork(v *sched.JobState, perNode float64, nodes int, now eventq.Time) {
	if nodes > s.abruptNodes {
		nodes = s.abruptNodes
	}
	s.abruptNodes -= nodes
	lost := perNode * float64(nodes)
	if done := v.Phase().Work - v.Remaining; lost > done {
		lost = done
	}
	if lost > 0 {
		v.Remaining += lost
		s.lostWork += lost
		if s.probe != nil {
			s.probe.ReconfigCharge(now.Seconds(), v.Job.ID, obs.ChargeLostWork, lost)
		}
	}
}

// pause holds js for a data redistribution of the given seconds.
// Overlapping pauses coalesce (one redistribution at a time); only the
// actual extension is charged, so the accounting matches the dynamics.
func (s *Sim) pause(js *jobState, seconds float64, now eventq.Time) {
	until := now.Add(eventq.DurationOf(seconds))
	if until <= js.pausedUntil {
		return
	}
	ext := eventq.Duration(until - max(js.pausedUntil, now)).Seconds()
	s.redistS += ext
	js.pausedUntil = until
	if s.probe != nil {
		s.probe.ReconfigCharge(now.Seconds(), js.Job.ID, obs.ChargeRedistribution, ext)
	}
}
