package cluster

import (
	"cmp"
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
type capacityCursor struct {
	// annOrder lists the graceful changes by the instant their window
	// opens (index order among equals) — not index order in general, as
	// notices are per change; annPos is the first still to open.
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

// startCapacity indexes the graceful changes and arms the cursor. Only a
// volatile pool gets here: a fixed one allocates and schedules nothing.
func (s *Sim) startCapacity() {
	prev := s.nodes
	for i, c := range s.changes {
		if c.NoticeS > 0 && c.Capacity < prev {
			s.annOrder = append(s.annOrder, int32(i))
		}
		prev = c.Capacity
	}
	byNotice := func(a, b int32) int { return cmp.Compare(noticeAt(s.changes[a]), noticeAt(s.changes[b])) }
	if !slices.IsSortedFunc(s.annOrder, byNotice) { // per-change notices; one constant notice never sorts
		slices.SortStableFunc(s.annOrder, byNotice)
	}
	s.fn = s.fireCapacity
	s.restartCapacity()
}

// restartCapacity (re)starts the timeline at the current instant: every
// pending window that has opened by now is owed an announcement, then the
// cursor is armed.
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
// against the next change to apply.
func (s *Sim) armCapacity() {
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
	if idx < 0 {
		return // timeline exhausted
	}
	s.armedIdx, s.armedAnnounce = idx, announce
	s.ev = s.q.ReuseAtTier(s.ev, at, tierCapacity, s.fn)
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
