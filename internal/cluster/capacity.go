package cluster

import (
	"fmt"
	"slices"

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
// predecessor's (the pool size for change 0). A notice window that opened
// before the arming instant (t = 0, or the clock at a resume) is clamped
// to it; a suspension forgets every announcement, so a resume announces
// every window already open again, in index order, before anything later.
//
// The changes are pulled from the timeline (Sim.tl) as the clock
// approaches them: before arming, the cursor pulls until the last change
// pulled lies past the next action plus the timeline's longest notice, so
// no change still unpulled can open a window or take effect first.
type capacityCursor struct {
	// tl is the timeline still to pull (nil once it has ended, failed or
	// none was set); maxNotice its longest notice, and capErr the error
	// that ended it early.
	tl        *availability.Timeline
	maxNotice eventq.Duration
	capErr    error
	// annOrder lists the graceful changes pulled by the instant their
	// window opens (index order among equals) — not index order in
	// general, as notices are per change; annPos is the first still to
	// open.
	annOrder []int32
	annPos   int
	// open lists, by index, the pending changes whose window has opened.
	// open[:announced] have been announced since the last (re)arming: the
	// reclaim notices outstanding, which an intervening capacity event
	// must not void. open[announced:] are announcements a resume still
	// owes at the current instant.
	open      []int32
	announced int
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
	s.changes, s.annOrder, s.capErr, s.tl, s.maxNotice = nil, nil, nil, tl, 0
	if tl != nil {
		s.maxNotice = eventq.DurationOf(tl.MaxNoticeS())
	}
}

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

// admit checks changes[i] against its predecessor and the pool, and
// indexes it if graceful: every change passes here once, pulled or set.
func (s *Sim) admit(i int) error {
	c, prevAt, prevCap := s.changes[i], 0.0, s.nodes
	if i > 0 {
		prevAt, prevCap = s.changes[i-1].At, s.changes[i-1].Capacity
	}
	switch {
	case c.At < 0 || c.At < prevAt:
		return fmt.Errorf("cluster: capacity change %d at %g out of order", i, c.At)
	case c.Capacity < 0 || c.Capacity > s.nodes:
		return fmt.Errorf("cluster: capacity change %d to %d outside [0, %d]", i, c.Capacity, s.nodes)
	case c.NoticeS < 0:
		return fmt.Errorf("cluster: capacity change %d has negative notice", i)
	}
	if c.NoticeS > 0 && c.Capacity < prevCap {
		// Insert by window opening, after equals: an append whenever the
		// notice is the timeline's one constant.
		at, k := noticeAt(c), len(s.annOrder)
		for k > s.annPos && noticeAt(s.changes[s.annOrder[k-1]]) > at {
			k--
		}
		s.annOrder = slices.Insert(s.annOrder, k, int32(i))
	}
	return nil
}

// restartCapacity (re)starts the timeline at the current instant: every
// pending window that has opened by now is owed an announcement, then the
// cursor is armed. The caller has pulled past now plus the longest
// notice.
func (s *Sim) restartCapacity() {
	now := s.q.Now()
	s.open = slices.DeleteFunc(s.open, func(i int32) bool { return int(i) < s.nextChange })
	for ; s.annPos < len(s.annOrder); s.annPos++ {
		i := s.annOrder[s.annPos]
		if noticeAt(s.changes[i]) > now {
			break
		}
		if int(i) >= s.nextChange {
			s.openWindow(i)
		}
	}
	s.announced = 0
	s.armCapacity()
}

// openWindow adds change i to the index-ordered open list (an append when
// announce instants are monotone in the index).
func (s *Sim) openWindow(i int32) {
	at, _ := slices.BinarySearch(s.open, i)
	s.open = slices.Insert(s.open, at, i)
}

// armCapacity schedules the one capacity event at the earliest pending
// action: the next announcement owed (now), else the next window to open,
// against the next change to apply. It pulls until no change still
// unpulled can come first.
func (s *Sim) armCapacity() {
	for {
		at, idx, announce := eventq.Forever, -1, true
		if s.announced < len(s.open) {
			at, idx = s.q.Now(), int(s.open[s.announced])
		} else if s.annPos < len(s.annOrder) {
			idx = int(s.annOrder[s.annPos])
			at = noticeAt(s.changes[idx])
		}
		if n := s.nextChange; n < len(s.changes) {
			if applyAt := changeAt(s.changes[n]); idx < 0 || applyAt < at || applyAt == at && n < idx {
				at, idx, announce = applyAt, n, false
			}
		}
		if s.tl != nil && (idx < 0 || !s.pulledPast(at.Add(s.maxNotice))) {
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
	if s.capStopped || len(s.finished) < len(s.jobs) {
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
	s.pullPast(now.Add(s.maxNotice))
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
	s.restartCapacity()
}

// announceCapacity opens a reclaim-notice window: the scheduler's usable
// capacity shrinks to the announced target ahead of the actual drop, so
// jobs migrate off the doomed nodes and lose no work when it lands.
func (s *Sim) announceCapacity(idx int) {
	if s.probe != nil {
		s.probe.CapacityNotice(s.q.Now().Seconds(), s.changes[idx].Capacity)
	}
	if s.announced == len(s.open) { // a window opening now, not a re-announcement
		s.annPos++
		s.openWindow(int32(idx))
	}
	s.announced++
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
	if len(s.open) > 0 && int(s.open[0]) == idx { // its notice is no longer outstanding
		s.open = slices.Delete(s.open, 0, 1)
		s.announced--
	}
	s.nextChange = idx + 1
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
	for _, i := range s.open[:s.announced] {
		if target := s.changes[i].Capacity; target < cap {
			cap = target
		}
	}
	return cap
}
