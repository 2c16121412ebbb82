package cluster

import (
	"math/bits"

	"dpsim/internal/eventq"
)

// arrive starts a pending job's first phase; from here on its one event
// is the phase completion.
func (s *Sim) arrive(js *jobState) {
	now := s.q.Now()
	if s.probe != nil {
		s.probe.JobArrive(now.Seconds(), js.Job.ID)
	}
	js.last = now
	js.fn = func() { s.phaseDone(js) }
	s.insertActive(js)
	s.lastJobEvent = now
	s.dirty = true
}

func (s *Sim) phaseDone(js *jobState) {
	i, _ := s.searchActive(js.Job.ID)
	v := &s.views[i]
	now := s.q.Now()
	// The cached rate belonged to the finished phase: zero it, so the
	// reschedule stage recomputes it for the next one.
	js.last, js.rate = now, 0
	s.lastJobEvent = now
	if s.probe != nil {
		s.probe.PhaseDone(now.Seconds(), js.Job.ID, v.PhaseIdx, len(js.Job.Phases))
	}
	v.PhaseIdx++
	if v.PhaseIdx >= len(js.Job.Phases) {
		js.finished = now.Seconds()
		if s.probe != nil {
			s.probe.JobFinish(now.Seconds(), js.Job.ID)
		}
		s.removeActive(i)
		s.finished = append(s.finished, js)
	} else {
		v.Remaining = js.Job.Phases[v.PhaseIdx].Work
	}
	s.dirty = true
}

// settle is the first stage of reallocate. It brings the remaining work
// of every job holding nodes (the holder set of oldAlloc, the
// allocations in force before this pass, which the reschedule stage
// later prices against the policy's) up to now and lists them in heldIdx.
// A waiting job makes no progress and is not touched. It returns the
// total allocation.
func (s *Sim) settle(now eventq.Time) (total int) {
	held, olds, actives, views := s.heldIdx[:0], s.oldAlloc, s.actives, s.views
	for w, word := range s.held {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			held = append(held, i)
			total += olds[i]
			js := actives[i]
			// Only a running job progresses; one already settled at this
			// instant (a same-instant arrival, or a phase boundary) has dt
			// exactly zero.
			if js.rate > 0 && js.last != now {
				if dt := (now - progressStart(js, now)).Seconds(); dt > 0 {
					v := &views[i]
					v.Remaining -= min(js.rate*dt, v.Remaining)
				}
			}
			js.last = now
		}
	}
	s.heldIdx = held
	return total
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

// reschedule is the last stage of reallocate: every job holding nodes
// before or after the pass (held ∪ next, in index order, so charges
// run in ID order) is charged for a changed allocation (charge), takes
// its new allocation and rate, and its completion event moves to the new
// ETA (plus any redistribution pause still to run), allocation-free. A
// job left without nodes has no completion; only a running one had one.
// A job waiting before and after is not touched, and one newly granted
// nodes starts progressing now. Each visited oldAlloc entry is zeroed,
// which leaves the whole buffer zero for the next pass's policy.
// Completions are keyed by job ID, so same-instant ones fire in ID order
// and one whose instant did not move is not sifted. It returns the
// changed count.
func (s *Sim) reschedule(now eventq.Time) (changed int) {
	olds, allocs, actives, views := s.oldAlloc, s.allocBuf, s.actives, s.views
	for w, word := range s.held {
		for word |= s.next[w]; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			old, alloc := olds[i], allocs[i]
			olds[i] = 0
			js, v := actives[i], &views[i]
			if alloc != old {
				changed++
				s.charge(js, v, old, alloc, now)
			}
			if old == 0 {
				js.last = now
			}
			v.Alloc = alloc
			rate := js.rate // cached while the phase and the allocation hold
			if alloc != old || rate == 0 {
				switch m := js.Job.Model; {
				case alloc <= 0:
					rate = 0
				case m == nil:
					rate = v.Phase().Rate(alloc)
				default:
					rate = m.Rate(v.Phase().Work, alloc)
				}
			}
			if rate > 0 {
				eta := eventq.DurationOf(v.Remaining / rate)
				if js.pausedUntil > now {
					eta += eventq.Duration(js.pausedUntil - now)
				}
				js.ev = s.q.RescheduleKeyed(js.ev, eta, int64(js.Job.ID), js.fn)
			} else if js.rate > 0 {
				s.q.Cancel(js.ev)
			}
			js.rate = rate
		}
	}
	return changed
}
