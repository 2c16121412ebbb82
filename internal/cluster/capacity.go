package cluster

import (
	"fmt"
	"math"

	"dpsim/internal/availability"
	"dpsim/internal/eventq"
)

// capacityCursor drives the capacity timeline with at most ONE pending
// event, armed at the earliest action still to come. Firing performs
// exactly that action — one announceCapacity or one applyCapacity, so
// events and probe callbacks stay one-for-one with the timeline — and
// re-arms. Suspending an idle pool is one Cancel, resuming it a silent
// fast-forward plus one re-arm, whatever the timeline's length.
//
// The order is that of pushing every pending change's announcement (if
// any) and then its application onto a FIFO tier at each (re)arming: by
// instant, then by change index, the announcement first. A change is
// announced iff graceful: NoticeS > 0 and a capacity below its
// predecessor's (the pool size for change 0). Every graceful change
// carries the timeline's one notice, so windows open in index order and
// one index says which have. A window that opened before the arming
// instant (t = 0, or the clock at a resume) is clamped to it; a
// suspension forgets every announcement, so a resume announces every
// window already open again, in index order, before anything later.
//
// The changes are pulled from the timeline (Sim.tl) as the clock
// approaches them: before arming, the cursor pulls until the last change
// pulled lies past the next action plus the notice, so no change still
// unpulled can open a window or take effect first.
type capacityCursor struct {
	// tl is the timeline still to pull (nil once it has ended, failed or
	// none was set); noticeS the notice of every graceful change (the
	// timeline's, or the first one admitted from a slice), and capErr the
	// error that ended the timeline early.
	tl      *availability.Timeline
	noticeS float64
	capErr  error
	// announced is one past the last change announced since the last
	// (re)arming: the graceful changes in [nextChange, announced) are the
	// reclaim notices outstanding, which an intervening capacity event
	// must not void. nextNotice, the next change to announce, is the first
	// graceful one from announced on, kept so each change is tested once.
	announced, nextNotice int
	// ev is the one capacity event, recycled at every re-arm, and fn its
	// callback, bound once; armedIdx/armedAnnounce say what it will do.
	ev            *eventq.Event
	fn            func()
	armedIdx      int
	armedAnnounce bool
}

// changeAt is the instant a change takes effect; noticeAt the (unclamped)
// instant its notice window opens.
func changeAt(c availability.Change) eventq.Time { return eventq.Time(eventq.DurationOf(c.At)) }
func noticeAt(c availability.Change) eventq.Time {
	return changeAt(c) - eventq.Time(eventq.DurationOf(c.NoticeS))
}

// setTimeline installs tl (nil: none) as the timeline still to pull,
// forgetting any changes taken from an earlier one.
func (s *Sim) setTimeline(tl *availability.Timeline) {
	s.changes, s.capErr, s.tl, s.noticeS = nil, nil, tl, 0
	if tl != nil {
		s.noticeS = tl.NoticeS()
	}
}

// notice is the length of every notice window.
func (s *Sim) notice() eventq.Duration { return eventq.DurationOf(s.noticeS) }

// pullPast pulls changes until the last one pulled lies past t, or the
// timeline ends.
func (s *Sim) pullPast(t eventq.Time) {
	for s.tl != nil && !s.pulledPast(t) {
		s.pull()
	}
}

func (s *Sim) pulledPast(t eventq.Time) bool {
	return len(s.changes) > 0 && changeAt(s.changes[len(s.changes)-1]) > t
}

// pull takes the timeline's next change. A change that admit refuses,
// or a timeline over its budget, ends the timeline there, keeping the
// error (Err).
func (s *Sim) pull() {
	c, ok, err := s.tl.Next()
	if ok {
		s.changes = append(s.changes, c)
		if err = s.admit(len(s.changes) - 1); err != nil {
			s.changes = s.changes[:len(s.changes)-1]
		}
	}
	if !ok || err != nil {
		s.tl, s.capErr = nil, err
	}
}

// admit checks changes[i] against its predecessor, the pool and the
// notice of the graceful changes before it: every change passes here
// once, pulled or set.
func (s *Sim) admit(i int) error {
	c := s.changes[i]
	prevAt := 0.0
	if i > 0 {
		prevAt = s.changes[i-1].At
	}
	switch {
	case math.IsNaN(c.At) || math.IsInf(c.At, 0):
		return fmt.Errorf("cluster: capacity change %d at %g, not a finite instant", i, c.At)
	case math.IsNaN(c.NoticeS) || math.IsInf(c.NoticeS, 0):
		return fmt.Errorf("cluster: capacity change %d has notice %g, not a finite number", i, c.NoticeS)
	case c.At < 0 || c.At < prevAt:
		return fmt.Errorf("cluster: capacity change %d at %g out of order", i, c.At)
	case c.Capacity < 0 || c.Capacity > s.nodes:
		return fmt.Errorf("cluster: capacity change %d to %d outside [0, %d]", i, c.Capacity, s.nodes)
	case c.NoticeS < 0:
		return fmt.Errorf("cluster: capacity change %d has negative notice", i)
	}
	if s.graceful(i) {
		if s.noticeS == 0 {
			s.noticeS = c.NoticeS
		} else if c.NoticeS != s.noticeS {
			return fmt.Errorf("cluster: capacity change %d has notice %g, the timeline's is %g", i, c.NoticeS, s.noticeS)
		}
	}
	return nil
}

// graceful reports whether changes[i] is announced: a drop with notice.
func (s *Sim) graceful(i int) bool {
	prevCap := s.nodes
	if i > 0 {
		prevCap = s.changes[i-1].Capacity
	}
	return s.changes[i].NoticeS > 0 && s.changes[i].Capacity < prevCap
}

// nextGraceful is the first graceful change from i on, or len(changes).
func (s *Sim) nextGraceful(i int) int {
	for i < len(s.changes) && !s.graceful(i) {
		i++
	}
	return i
}

// armCapacity schedules the one capacity event at the earliest pending
// action: the next announcement (now, if its window opened before the
// arming), against the next change to apply. It pulls until no change
// still unpulled can come first.
func (s *Sim) armCapacity() {
	for {
		s.nextNotice = s.nextGraceful(s.nextNotice)
		at, idx, announce := eventq.Forever, -1, true
		if s.nextNotice < len(s.changes) {
			at, idx = max(noticeAt(s.changes[s.nextNotice]), s.q.Now()), s.nextNotice
		}
		if n := s.nextChange; n < len(s.changes) {
			if applyAt := changeAt(s.changes[n]); idx < 0 || applyAt < at || applyAt == at && n < idx {
				at, idx, announce = applyAt, n, false
			}
		}
		if s.tl != nil && (idx < 0 || !s.pulledPast(at.Add(s.notice()))) {
			s.pull()
			continue
		}
		if idx >= 0 { // else the timeline is exhausted
			s.armedIdx, s.armedAnnounce = idx, announce
			s.ev = s.q.ReuseAtTier(s.ev, at, tierCapacity, s.fn)
		}
		return
	}
}

// fireCapacity performs the action the cursor was armed for and re-arms.
func (s *Sim) fireCapacity() {
	if s.armedAnnounce {
		s.announceCapacity(s.armedIdx)
	} else {
		s.applyCapacity(s.armedIdx)
	}
	s.armCapacity()
}

// maybeSuspendCapacity cancels the pending capacity event once the
// workload is exhausted: with nothing to serve the timeline cannot affect
// any outcome, and a long availability horizon (a day of failure events,
// say) would otherwise keep churning the event loop long after the last
// job.
func (s *Sim) maybeSuspendCapacity() {
	if s.capStopped || s.finished < len(s.jobs) {
		return
	}
	s.q.Cancel(s.ev)
	s.capStopped = true
}

// resumeCapacity fast-forwards a suspended timeline to the current
// instant — changes that elapsed while the cluster was idle are applied
// silently (there was nothing to reallocate) — and re-arms the cursor,
// which forgets the announcements made before the suspension.
func (s *Sim) resumeCapacity() {
	s.capStopped = false
	now := s.q.Now()
	s.pullPast(now.Add(s.notice()))
	for s.nextChange < len(s.changes) {
		c := s.changes[s.nextChange]
		at := changeAt(c)
		if at > now {
			break
		}
		s.capNow = c.Capacity
		s.nextChange++
	}
	s.schedCap = s.capNow
	if s.announced > s.nextChange { // notices still outstanding are owed again
		s.nextNotice = s.nextChange
	}
	s.announced, s.nextNotice = s.nextChange, max(s.nextNotice, s.nextChange)
	s.armCapacity()
}

// announceCapacity opens a reclaim-notice window: the scheduler's usable
// capacity shrinks to the announced target ahead of the actual drop, so
// jobs migrate off the doomed nodes and lose no work when it lands.
func (s *Sim) announceCapacity(idx int) {
	if s.probe != nil {
		s.probe.CapacityNotice(s.q.Now().Seconds(), s.changes[idx].Capacity)
	}
	s.announced, s.nextNotice = idx+1, idx+1
	if next := s.effectiveSchedCap(); next < s.schedCap {
		s.schedCap = next
		s.dirty = true
	}
}

// applyCapacity puts a capacity change into effect. Abrupt drops (no
// notice) preempt whatever still runs beyond the new capacity and charge
// the lost-work cost; graceful drops land on an already-drained pool.
func (s *Sim) applyCapacity(idx int) {
	c := s.changes[idx]
	if s.probe != nil {
		s.probe.CapacityChange(s.q.Now().Seconds(), c.Capacity)
	}
	s.nextChange = idx + 1 // its notice, if any, is no longer outstanding
	if c.Capacity < s.capNow && !(c.NoticeS > 0) {
		// Same-instant abrupt drops pool their lost-work budgets: the
		// coalesced reallocation charges against the total node count
		// reclaimed at the instant, and the budget expires in the flush.
		s.abruptNodes += s.capNow - c.Capacity
	}
	s.capNow = c.Capacity
	s.schedCap = s.effectiveSchedCap()
	s.dirty = true
}

// effectiveSchedCap is the capacity the scheduler may use right now: the
// actual pool, further limited by any reclaim notice still outstanding —
// a capacity rise (or an unrelated change) inside a notice window must
// not hand back nodes that are already doomed.
func (s *Sim) effectiveSchedCap() int {
	cap := s.capNow
	for i := s.nextChange; i < s.announced; i++ {
		if target := s.changes[i].Capacity; target < cap && s.graceful(i) {
			cap = target
		}
	}
	return cap
}
