package eventq

import (
	"fmt"
	"math"
)

// Time is an absolute instant of virtual time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants so call sites read
// naturally without importing the wall-clock time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel Time larger than any reachable instant.
const Forever Time = math.MaxInt64

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds converts an instant to floating-point seconds since start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the instant d after t, saturating at Forever.
func (t Time) Add(d Duration) Time {
	if t == Forever {
		return Forever
	}
	s := t + Time(d)
	if d > 0 && s < t {
		return Forever
	}
	return s
}

// DurationOf converts floating-point seconds to a Duration, rounding to
// the nearest nanosecond and clamping negatives to zero.
func DurationOf(seconds float64) Duration {
	if seconds <= 0 {
		return 0
	}
	if seconds >= float64(math.MaxInt64)/float64(Second) {
		return Duration(math.MaxInt64)
	}
	// Round half away from zero, as math.Round does: x ≥ 0 here, and x−n
	// is exact (the fraction of a float64 is representable), so the
	// comparison decides the rounding exactly (FuzzDurationOf).
	x := float64(seconds * float64(Second))
	n := int64(x)
	if x-float64(n) >= 0.5 {
		n++
	}
	return Duration(n)
}

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gµs", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.4gms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6gs", d.Seconds())
	}
}

func (t Time) String() string {
	if t == Forever {
		return "∞"
	}
	return Duration(t).String()
}

// Event is a callback scheduled at an instant. Events scheduled for the
// same instant fire by ascending tier, then by ascending key (0 unless set
// by RescheduleKeyed), then in scheduling order (FIFO), which makes
// simulations deterministic regardless of heap internals. The struct
// stays in the 48-byte size class. The zero value is an unqueued event.
type Event struct {
	when Time
	tier int8
	seq  uint64
	key  int64
	pos  int // heap index + 1; 0 when not queued (never, fired or cancelled)
	fn   func()
}

// Time reports the instant the event is scheduled for.
func (e *Event) Time() Time { return e.when }

// Scheduled reports whether the event is still pending in a queue.
func (e *Event) Scheduled() bool { return e != nil && e.pos > 0 }

// Queue is a virtual clock plus a pending-event heap. The zero value is
// ready to use at time 0.
type Queue struct {
	now    Time
	heap   []*Event
	nextSq uint64
	fired  uint64
}

// New returns an empty queue at virtual time 0.
func New() *Queue { return &Queue{} }

// Now returns the current virtual time.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Fired returns the cumulative number of events executed.
func (q *Queue) Fired() uint64 { return q.fired }

// At schedules fn at the absolute instant when, in the default tier 0.
// Scheduling in the past (before Now) panics: it would mean a model
// produced a causality violation and continuing would silently corrupt
// the timeline.
func (q *Queue) At(when Time, fn func()) *Event {
	return q.AtTier(when, 0, fn)
}

// AtTier schedules fn at the absolute instant when in the given tier.
// Same-instant events fire by ascending tier, FIFO within a tier, no
// matter when each was scheduled — so a model can give a class of events
// (e.g. externally injected arrivals) a stable position relative to
// events that are already queued for that instant.
func (q *Queue) AtTier(when Time, tier int8, fn func()) *Event {
	if when < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", when, q.now))
	}
	e := &Event{when: when, tier: tier, seq: q.nextSq, fn: fn}
	q.nextSq++
	q.push(e)
	return e
}

// After schedules fn d from now.
func (q *Queue) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return q.At(q.now.Add(d), fn)
}

// ReuseAtTier schedules fn like AtTier, but recycles the caller-owned
// Event e instead of allocating when e has already fired or been
// cancelled. A nil e (or one still pending — recycling it would corrupt
// the heap) allocates a fresh Event. The returned event is the one
// actually queued; callers that hold exactly one pending event per
// entity (a job's next phase completion, a flow's next drain) can loop
// `e = q.ReuseAtTier(e, ...)` forever with zero steady-state
// allocations. Never pass an event owned by another holder: recycling is
// only safe because the owner knows no one else will Cancel it.
func (q *Queue) ReuseAtTier(e *Event, when Time, tier int8, fn func()) *Event {
	if when < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", when, q.now))
	}
	if e == nil || e.Scheduled() {
		e = &Event{}
	}
	*e = Event{when: when, tier: tier, seq: q.nextSq, fn: fn}
	q.nextSq++
	q.push(e)
	return e
}

// ReuseAfter is After with ReuseAtTier's recycling (default tier 0).
func (q *Queue) ReuseAfter(e *Event, d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return q.ReuseAtTier(e, q.now.Add(d), 0, fn)
}

// RescheduleAfter moves e to the instant d from now (tier 0). It is
// exactly equivalent to Cancel(e) followed by ReuseAfter(e, d, fn) — the
// event takes a fresh sequence number, so its same-instant FIFO position
// is that of a newly scheduled event — but when e is still pending it
// repositions the existing heap entry with a single sift instead of a
// removal plus a push. This is the hot-path API for the one-pending-
// event-per-entity pattern (a job's next phase completion): every
// scheduling event moves the entity's deadline, and half the heap
// traffic of the cancel-and-repush idiom is pure overhead.
func (q *Queue) RescheduleAfter(e *Event, d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return q.move(e, q.now.Add(d), 0, fn)
}

// RescheduleKeyed is RescheduleAfter for an event whose same-instant
// position is fixed by its owner rather than by when it was last moved:
// tier-0 events at one instant fire by ascending key, and FIFO only among
// equal keys. When e is already pending at that instant with that key,
// nothing about its position can change, so it returns e without
// touching the heap (its sequence number is kept; fn replaces the
// callback). The cluster keys a job's phase completion by the job's ID,
// so a scheduling pass that leaves a completion instant where it was
// costs one comparison instead of a sift.
func (q *Queue) RescheduleKeyed(e *Event, d Duration, key int64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	when := q.now.Add(d)
	if e.Scheduled() && e.when == when && e.tier == 0 && e.key == key {
		e.fn = fn
		return e
	}
	return q.move(e, when, key, fn)
}

// move places e at (when, tier 0, key) with a fresh sequence number:
// one sift when e is pending, a recycled (or, for nil, new) push
// otherwise.
func (q *Queue) move(e *Event, when Time, key int64, fn func()) *Event {
	if !e.Scheduled() {
		if e == nil {
			e = &Event{}
		}
		*e = Event{when: when, key: key, seq: q.nextSq, fn: fn}
		q.nextSq++
		q.push(e)
		return e
	}
	e.when, e.tier, e.key, e.fn = when, 0, key, fn
	e.seq = q.nextSq
	q.nextSq++
	if i := e.pos - 1; !q.up(i) {
		q.down(i)
	}
	return e
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op; Cancel reports whether the event
// was actually removed.
func (q *Queue) Cancel(e *Event) bool {
	if !e.Scheduled() {
		return false
	}
	q.remove(e)
	return true
}

// NextTime reports the instant of the earliest pending event without
// firing it, and false when the queue is empty. Cancelled events are
// removed eagerly, so the head of the heap is always live.
func (q *Queue) NextTime() (Time, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.peek().when, true
}

// Step fires the earliest pending event, advancing the clock to its
// instant. It reports false when no events remain.
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	e := q.pop()
	q.now = e.when
	q.fired++
	e.fn()
	return true
}

// Run fires events until the queue drains or limit events have fired
// (limit <= 0 means no limit). It returns the number fired. A limit guards
// tests against accidental event storms / livelock.
func (q *Queue) Run(limit uint64) uint64 {
	var n uint64
	for q.Step() {
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// RunUntil fires events with instants <= deadline, leaving later events
// pending, and advances the clock to min(deadline, time of last event).
func (q *Queue) RunUntil(deadline Time) {
	for len(q.heap) > 0 {
		if q.peek().when > deadline {
			break
		}
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// --- heap internals ---
//
// The pending set is a 4-ary array heap with hole-based sifting,
// specialized to *Event to avoid interface boxing. The wider fan-out
// halves the tree depth of the binary layout (fewer cache lines touched
// per sift on pop-heavy loads), and sifting a hole writes each displaced
// entry once instead of three-way swapping. The ordering key
// (when, tier, key, seq) is a strict total order — no two pending events
// compare equal — so pop order is independent of the heap's internal
// arrangement and the arity is free to change without affecting any
// simulation outcome.

// dary is the heap fan-out.
const dary = 4

// lessEv is the event ordering: instant, then tier, then key, then FIFO
// seq.
func lessEv(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *Queue) push(e *Event) {
	q.heap = append(q.heap, e)
	e.pos = len(q.heap)
	q.up(e.pos - 1)
}

func (q *Queue) peek() *Event { return q.heap[0] }

func (q *Queue) pop() *Event {
	e := q.heap[0]
	last := len(q.heap) - 1
	tail := q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.heap[0] = tail
		tail.pos = 1
		q.down(0)
	}
	e.pos = 0
	return e
}

func (q *Queue) remove(e *Event) {
	i := e.pos - 1
	last := len(q.heap) - 1
	tail := q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.heap[i] = tail
		tail.pos = i + 1
		if !q.up(i) {
			q.down(i)
		}
	}
	e.pos = 0
}

// up sifts the entry at i toward the root, reporting whether it moved.
// The entry is held in a register while its ancestors shift down into
// the hole, then written once at its final slot.
func (q *Queue) up(i int) bool {
	e := q.heap[i]
	start := i
	for i > 0 {
		p := (i - 1) / dary
		pe := q.heap[p]
		if !lessEv(e, pe) {
			break
		}
		q.heap[i] = pe
		pe.pos = i + 1
		i = p
	}
	if i == start {
		return false
	}
	q.heap[i] = e
	e.pos = i + 1
	return true
}

// down sifts the entry at i toward the leaves: at each level the least
// of up to dary children shifts up into the hole.
func (q *Queue) down(i int) {
	e := q.heap[i]
	n := len(q.heap)
	start := i
	for {
		c := dary*i + 1
		if c >= n {
			break
		}
		end := c + dary
		if end > n {
			end = n
		}
		m, me := c, q.heap[c]
		for j := c + 1; j < end; j++ {
			if je := q.heap[j]; lessEv(je, me) {
				m, me = j, je
			}
		}
		if !lessEv(me, e) {
			break
		}
		q.heap[i] = me
		me.pos = i + 1
		i = m
	}
	if i != start {
		q.heap[i] = e
		e.pos = i + 1
	}
}
