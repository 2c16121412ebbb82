package cluster

import "dpsim/internal/eventq"

// arrive starts a pending job's first phase; from here on its one event
// is the phase completion.
func (s *Sim) arrive(js *jobState) {
	now := s.q.Now()
	if s.probe != nil {
		s.probe.JobArrive(now.Seconds(), js.Job.ID)
	}
	js.PhaseIdx, js.Remaining, js.last = 0, js.Job.Phases[0].Work, now
	js.fn = func() { s.phaseDone(js) }
	s.insertActive(js)
	s.lastJobEvent = now
	s.dirty = true
}

func (s *Sim) phaseDone(js *jobState) {
	js.Remaining = 0
	// Credit the completed slice.
	now := s.q.Now()
	if dt := (now - progressStart(js, now)).Seconds(); dt > 0 && js.rate > 0 && js.Alloc > 0 {
		s.credit(js, js.rate*dt)
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
	s.dirty = true
}

// settle is the first stage of reallocate. It settles every active job in
// ID order — the efficiency counters are float accumulators, and any
// other walk order would make their last bits depend on iteration order,
// breaking bit-reproducibility across runs; the sorted active list IS
// that order. The same pass snapshots the pre-event allocations (the
// charge stage prices the net per-job delta across preemption and the
// policy) and returns their total.
func (s *Sim) settle(now eventq.Time) (total int) {
	s.oldAlloc = grow(s.oldAlloc, len(s.actives))
	for i, js := range s.actives {
		// Only a running job progresses; one already settled at this
		// instant (a same-instant arrival, or a phase boundary that
		// credited its slice) has dt exactly zero.
		if js.rate > 0 && js.last != now {
			if dt := (now - progressStart(js, now)).Seconds(); dt > 0 {
				done := js.rate * dt
				if done > js.Remaining {
					done = js.Remaining
				}
				js.Remaining -= done
				if js.Alloc > 0 {
					s.credit(js, done)
				}
			}
		}
		js.last = now
		s.oldAlloc[i] = js.Alloc
		total += js.Alloc
	}
	return total
}

// credit is the efficiency accounting of done work-seconds run at the
// job's current allocation, shared by settle and phaseDone. The Model
// branch sits here, not behind an interface, so the comm formula inlines.
func (s *Sim) credit(js *jobState, done float64) {
	s.effNum += done
	if m := js.Job.Model; m == nil {
		s.effDen += done / js.Phase().Efficiency(js.Alloc)
	} else {
		s.effDen += done / m.Efficiency(js.Phase().Work, js.Alloc)
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

// reschedule is the last stage of reallocate: every active job takes its
// new allocation and rate, and its completion event moves to the new ETA
// (plus any redistribution pause still to run), allocation-free. A job
// left without nodes has no completion; only a running one had one.
func (s *Sim) reschedule(now eventq.Time) {
	for i, js := range s.actives {
		js.Alloc = s.allocBuf[i]
		var rate float64 // a waiting job never touches its phase list
		switch m := js.Job.Model; {
		case js.Alloc <= 0:
		case m == nil:
			rate = js.Phase().Rate(js.Alloc)
		default:
			rate = m.Rate(js.Phase().Work, js.Alloc)
		}
		if rate > 0 {
			eta := eventq.DurationOf(js.Remaining / rate)
			if js.pausedUntil > now {
				eta += eventq.Duration(js.pausedUntil - now)
			}
			js.ev = s.q.RescheduleAfter(js.ev, eta, js.fn)
		} else if js.rate > 0 {
			s.q.Cancel(js.ev)
		}
		js.rate = rate
	}
}
