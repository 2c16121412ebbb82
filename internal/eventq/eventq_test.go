package eventq

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"dpsim/internal/rng"
)

func TestEmptyQueue(t *testing.T) {
	q := New()
	if q.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if q.Now() != 0 {
		t.Fatalf("empty queue time = %v, want 0", q.Now())
	}
}

func TestOrdering(t *testing.T) {
	q := New()
	var got []int
	q.At(30, func() { got = append(got, 3) })
	q.At(10, func() { got = append(got, 1) })
	q.At(20, func() { got = append(got, 2) })
	q.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired order %v, want %v", got, want)
		}
	}
	if q.Now() != 30 {
		t.Fatalf("final time %v, want 30", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	q := New()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		q.At(100, func() { got = append(got, i) })
	}
	q.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

// TestTierOrdering: same-instant events fire by ascending tier before
// FIFO, regardless of scheduling order — a lower-tier event scheduled
// LAST still beats higher-tier events already queued for that instant.
func TestTierOrdering(t *testing.T) {
	q := New()
	var got []string
	q.At(10, func() { got = append(got, "t0-a") })
	q.AtTier(10, 1, func() { got = append(got, "t1") })
	q.AtTier(10, -1, func() { got = append(got, "t-1-a") })
	q.At(10, func() { got = append(got, "t0-b") })
	q.AtTier(10, -2, func() { got = append(got, "t-2") })
	q.AtTier(10, -1, func() { got = append(got, "t-1-b") })
	q.At(5, func() { got = append(got, "early") })
	q.Run(0)
	want := []string{"early", "t-2", "t-1-a", "t-1-b", "t0-a", "t0-b", "t1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestClockAdvances(t *testing.T) {
	q := New()
	var at1, at2 Time
	q.At(5, func() { at1 = q.Now() })
	q.At(9, func() { at2 = q.Now() })
	q.Run(0)
	if at1 != 5 || at2 != 9 {
		t.Fatalf("Now inside events = %v, %v; want 5, 9", at1, at2)
	}
}

func TestAfter(t *testing.T) {
	q := New()
	var fireTime Time
	q.At(7, func() {
		q.After(3, func() { fireTime = q.Now() })
	})
	q.Run(0)
	if fireTime != 10 {
		t.Fatalf("After(3) at time 7 fired at %v, want 10", fireTime)
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	q := New()
	fired := false
	q.After(-5, func() { fired = true })
	q.Run(0)
	if !fired || q.Now() != 0 {
		t.Fatalf("After(-5): fired=%v now=%v, want true at 0", fired, q.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := New()
	q.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.At(5, func() {})
	})
	q.Run(0)
}

func TestCancel(t *testing.T) {
	q := New()
	fired := false
	e := q.At(10, func() { fired = true })
	if !q.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if q.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	q.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	q := New()
	var got []int
	var events []*Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, q.At(Time(i*10), func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		q.Cancel(events[i])
	}
	q.Run(0)
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 13 {
		t.Fatalf("fired %d events, want 13", len(got))
	}
}

func TestCancelNil(t *testing.T) {
	q := New()
	if q.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

// TestZeroEventUnqueued: an Event the queue never returned is not
// scheduled, so cancelling or moving it leaves the queued events alone.
func TestZeroEventUnqueued(t *testing.T) {
	q := New()
	fired := false
	q.At(5, func() { fired = true })
	var zero Event
	if zero.Scheduled() {
		t.Fatal("zero Event reports Scheduled")
	}
	if q.Cancel(&zero) {
		t.Fatal("Cancel(&Event{}) returned true")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after cancelling a zero Event, want 1", q.Len())
	}
	moved := false
	if e := q.RescheduleKeyed(&Event{}, 9, 0, func() { moved = true }); !e.Scheduled() {
		t.Fatal("a moved zero Event is not queued")
	}
	q.Run(0)
	if !fired || !moved {
		t.Fatalf("fired = %v, moved = %v; want both", fired, moved)
	}
}

func TestScheduled(t *testing.T) {
	q := New()
	e := q.At(5, func() {})
	if !e.Scheduled() {
		t.Fatal("pending event not Scheduled")
	}
	q.Run(0)
	if e.Scheduled() {
		t.Fatal("fired event still Scheduled")
	}
}

func TestRunLimit(t *testing.T) {
	q := New()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		q.After(1, reschedule)
	}
	q.After(1, reschedule)
	n := q.Run(100)
	if n != 100 || count != 100 {
		t.Fatalf("Run(100) fired %d (count %d), want 100", n, count)
	}
}

func TestRunUntil(t *testing.T) {
	q := New()
	var got []Time
	for _, ti := range []Time{5, 10, 15, 20} {
		ti := ti
		q.At(ti, func() { got = append(got, ti) })
	}
	q.RunUntil(12)
	if len(got) != 2 || q.Now() != 12 {
		t.Fatalf("RunUntil(12): fired %v now %v, want [5 10] at 12", got, q.Now())
	}
	q.RunUntil(100)
	if len(got) != 4 || q.Now() != 100 {
		t.Fatalf("RunUntil(100): fired %v now %v", got, q.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	q := New()
	q.RunUntil(500)
	if q.Now() != 500 {
		t.Fatalf("idle RunUntil left clock at %v, want 500", q.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	q := New()
	for i := 0; i < 5; i++ {
		q.At(Time(i), func() {})
	}
	q.Run(0)
	if q.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", q.Fired())
	}
}

func TestNestedScheduling(t *testing.T) {
	q := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 64 {
			q.After(Duration(depth), recurse)
		}
	}
	q.After(1, recurse)
	q.Run(0)
	if depth != 64 {
		t.Fatalf("nested depth = %d, want 64", depth)
	}
}

// Property: events always fire in non-decreasing time order, and every
// non-cancelled event fires exactly once, for random schedules.
func TestPropertyOrderedCompleteFiring(t *testing.T) {
	prop := func(seed uint64, sizeRaw uint16) bool {
		size := int(sizeRaw%300) + 1
		r := rng.New(seed)
		q := New()
		firedAt := make([]Time, 0, size)
		expected := 0
		var events []*Event
		for i := 0; i < size; i++ {
			when := Time(r.Intn(1000))
			events = append(events, q.At(when, func() {
				firedAt = append(firedAt, q.Now())
			}))
		}
		cancelled := make(map[int]bool)
		for i := 0; i < size/4; i++ {
			cancelled[r.Intn(size)] = true
		}
		for idx := range cancelled {
			q.Cancel(events[idx])
		}
		expected = size - len(cancelled)
		q.Run(0)
		if len(firedAt) != expected {
			return false
		}
		return sort.SliceIsSorted(firedAt, func(i, j int) bool { return firedAt[i] < firedAt[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationOf(t *testing.T) {
	cases := []struct {
		sec  float64
		want Duration
	}{
		{0, 0},
		{-1, 0},
		{1, Second},
		{0.5, 500 * Millisecond},
		{1e-9, Nanosecond},
		{1e-6, Microsecond},
	}
	for _, c := range cases {
		if got := DurationOf(c.sec); got != c.want {
			t.Errorf("DurationOf(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
}

func TestDurationOfRoundTrip(t *testing.T) {
	prop := func(msRaw uint32) bool {
		sec := float64(msRaw) / 1000.0
		d := DurationOf(sec)
		back := d.Seconds()
		diff := back - sec
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if Forever.Add(Second) != Forever {
		t.Fatal("Forever.Add changed Forever")
	}
	almost := Time(int64(Forever) - 5)
	if almost.Add(100) != Forever {
		t.Fatal("overflowing Add did not saturate")
	}
}

func TestStrings(t *testing.T) {
	if s := (500 * Millisecond).String(); s == "" {
		t.Fatal("empty duration string")
	}
	if s := Forever.String(); s != "∞" {
		t.Fatalf("Forever.String() = %q", s)
	}
	if s := (2 * Second).String(); s != "2s" {
		t.Fatalf("(2s).String() = %q", s)
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	q := New()
	for i := 0; i < b.N; i++ {
		q.After(Duration(i%100), func() {})
		q.Step()
	}
}

func BenchmarkHeap1k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q := New()
		r := rng.New(uint64(i))
		for j := 0; j < 1000; j++ {
			q.At(Time(r.Intn(10000)), func() {})
		}
		q.Run(0)
	}
}

func TestNextTime(t *testing.T) {
	q := New()
	if _, ok := q.NextTime(); ok {
		t.Fatal("empty queue reported a next time")
	}
	e := q.At(50, func() {})
	q.At(30, func() {})
	if at, ok := q.NextTime(); !ok || at != 30 {
		t.Fatalf("next = %v, %v", at, ok)
	}
	// Peeking must not advance the clock or fire anything.
	if q.Now() != 0 || q.Fired() != 0 {
		t.Fatal("NextTime advanced the queue")
	}
	q.Step()
	if at, ok := q.NextTime(); !ok || at != 50 {
		t.Fatalf("after step: next = %v, %v", at, ok)
	}
	q.Cancel(e)
	if _, ok := q.NextTime(); ok {
		t.Fatal("cancelled event still visible")
	}
}

// TestReuseRecyclesFiredAndCancelled: ReuseAtTier must recycle an event
// the owner knows is out of the heap, refuse to recycle a pending one,
// and preserve the FIFO tie-break (a recycled event takes a fresh seq).
func TestReuseRecyclesFiredAndCancelled(t *testing.T) {
	q := New()
	var order []int
	e := q.At(10, func() { order = append(order, 0) })
	q.Step()
	if e.Scheduled() {
		t.Fatal("fired event still scheduled")
	}
	// Recycling a fired event must reuse the same object.
	e2 := q.ReuseAtTier(e, 20, 0, func() { order = append(order, 1) })
	if e2 != e {
		t.Fatal("fired event not recycled")
	}
	// Recycling a still-pending event must allocate a fresh one.
	e3 := q.ReuseAtTier(e2, 30, 0, func() { order = append(order, 2) })
	if e3 == e2 {
		t.Fatal("pending event recycled out from under the heap")
	}
	// A cancelled event is recyclable too, and the recycled event must
	// order FIFO after an event scheduled for the same instant earlier.
	q.Cancel(e3)
	q.At(20, func() { order = append(order, 3) })
	e4 := q.ReuseAtTier(e3, 20, 0, func() { order = append(order, 4) })
	if e4 != e3 {
		t.Fatal("cancelled event not recycled")
	}
	q.Run(0)
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("firing order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

// TestReuseAfterZeroAlloc: the steady-state reschedule loop — fire, then
// recycle the same event — must not allocate.
func TestReuseAfterZeroAlloc(t *testing.T) {
	q := New()
	var e *Event
	fn := func() {}
	e = q.After(1, fn)
	q.Step()
	// Warm up: the first reuse after a cap change may grow the heap.
	e = q.ReuseAfter(e, 1, fn)
	q.Step()
	allocs := testing.AllocsPerRun(200, func() {
		e = q.ReuseAfter(e, 1, fn)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("reuse loop allocates %v per event, want 0", allocs)
	}
}

// TestReuseAtTierPastPanics mirrors AtTier's causality guard.
func TestReuseAtTierPastPanics(t *testing.T) {
	q := New()
	q.At(10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on scheduling in the past")
		}
	}()
	q.ReuseAtTier(nil, 5, 0, func() {})
}

// TestRescheduleAfterMovesInPlace: rescheduling a pending event must
// reuse the same object, land it at the new instant, and give it a fresh
// FIFO position — exactly as if it had been cancelled and re-armed.
func TestRescheduleAfterMovesInPlace(t *testing.T) {
	q := New()
	var order []int
	e := q.After(30, func() { order = append(order, 0) })
	q.At(20, func() { order = append(order, 1) })
	// Move the pending event from t=30 to t=20: it must fire after the
	// event already scheduled there (fresh seq ⇒ FIFO behind it).
	if e2 := q.RescheduleAfter(e, 20, e.fn); e2 != e {
		t.Fatal("pending event not moved in place")
	}
	if e.Time() != 20 {
		t.Fatalf("rescheduled instant = %v, want 20ns", e.Time())
	}
	q.Run(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("firing order = %v, want [1 0]", order)
	}
	// A fired event falls back to the recycle path.
	e3 := q.RescheduleAfter(e, 5, func() { order = append(order, 2) })
	if e3 != e {
		t.Fatal("fired event not recycled")
	}
	q.Run(0)
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("firing order = %v, want [1 0 2]", order)
	}
}

// TestPropertyRescheduleEquivalence: for random schedules and random
// reschedules, RescheduleAfter must produce the identical firing
// sequence to Cancel followed by ReuseAfter on a mirror queue.
func TestPropertyRescheduleEquivalence(t *testing.T) {
	prop := func(seed uint64, sizeRaw uint16) bool {
		size := int(sizeRaw%100) + 2
		r := rng.New(seed)
		qa, qb := New(), New()
		var fa, fb []int
		ea := make([]*Event, size)
		eb := make([]*Event, size)
		for i := 0; i < size; i++ {
			i := i
			when := Time(r.Intn(500))
			ea[i] = qa.At(when, func() { fa = append(fa, i) })
			eb[i] = qb.At(when, func() { fb = append(fb, i) })
		}
		for k := 0; k < size/2; k++ {
			i := r.Intn(size)
			d := Duration(r.Intn(500))
			qa.RescheduleAfter(ea[i], d, ea[i].fn)
			qb.Cancel(eb[i])
			eb[i] = qb.ReuseAfter(eb[i], d, eb[i].fn)
		}
		qa.Run(0)
		qb.Run(0)
		if len(fa) != len(fb) {
			return false
		}
		for i := range fa {
			if fa[i] != fb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRescheduleAfterZeroAlloc: moving a pending event allocates nothing.
func TestRescheduleAfterZeroAlloc(t *testing.T) {
	q := New()
	fn := func() {}
	q.At(1000000, fn) // keep the queue non-empty so e stays pending
	e := q.After(1, fn)
	allocs := testing.AllocsPerRun(200, func() {
		e = q.RescheduleAfter(e, 2, fn)
	})
	if allocs != 0 {
		t.Fatalf("reschedule allocates %v per move, want 0", allocs)
	}
}

// TestKeyedOrdering: tier-0 events at one instant fire by ascending key
// over the whole int64 range, then FIFO among equal keys; key-0 events
// (every entry point but RescheduleKeyed) keep their FIFO order, and a
// lower tier still fires first.
func TestKeyedOrdering(t *testing.T) {
	q := New()
	var got []string
	keyed := func(key int64, name string) {
		q.RescheduleKeyed(nil, 10, key, func() { got = append(got, name) })
	}
	keyed(3, "k3")
	q.At(10, func() { got = append(got, "k0-a") })
	keyed(1, "k1-a")
	keyed(math.MaxInt64, "kmax")
	keyed(-5, "k-5")
	q.At(10, func() { got = append(got, "k0-b") })
	keyed(1, "k1-b")
	keyed(math.MinInt64, "kmin")
	q.AtTier(10, -1, func() { got = append(got, "tier-1") })
	keyed(0, "k0-c")
	q.Run(0)
	want := []string{"tier-1", "kmin", "k-5", "k0-a", "k0-b", "k0-c", "k1-a", "k1-b", "k3", "kmax"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestRescheduleKeyedInPlace: an event rescheduled to the instant and key
// it already holds keeps its sequence number and heap slot (so it still
// fires before a later equal-key event); a move to another instant or key
// takes a fresh sequence number, as RescheduleAfter does; a fired event
// is recycled.
func TestRescheduleKeyedInPlace(t *testing.T) {
	q := New()
	var got []string
	a := q.RescheduleKeyed(nil, 10, 7, func() { got = append(got, "a") })
	b := q.RescheduleKeyed(nil, 10, 7, func() { got = append(got, "b") })
	q.At(1, func() {})
	seq, pos := a.seq, a.pos
	if e := q.RescheduleKeyed(a, 10, 7, a.fn); e != a || a.seq != seq || a.pos != pos {
		t.Fatalf("same (instant, key): seq %d → %d, pos %d → %d", seq, a.seq, pos, a.pos)
	}
	if q.Step(); q.Now() != 1 {
		t.Fatalf("now %v, want 1ns", q.Now())
	}
	if q.RescheduleKeyed(a, 9, 7, a.fn); a.seq != seq {
		t.Fatal("same instant from a later now: seq renewed")
	}
	if q.RescheduleKeyed(a, 8, 7, a.fn); a.seq <= b.seq {
		t.Fatalf("unmoved seq %d after a move (b's is %d)", a.seq, b.seq)
	}
	q.RescheduleKeyed(b, 8, 6, b.fn) // a lower key overtakes the FIFO order
	q.Run(0)
	if want := []string{"b", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if e := q.RescheduleKeyed(a, 5, 7, a.fn); e != a || !a.Scheduled() || a.Time() != 14 {
		t.Fatal("fired event not recycled")
	}
}

// TestPropertyRescheduleKeyed: for random keyed schedules and random
// reschedules, the firing order is that of a reference that sorts by
// (instant, key, seq) and renumbers an entity only when its instant or
// key moves.
func TestPropertyRescheduleKeyed(t *testing.T) {
	type ref struct {
		when Time
		key  int64
		seq  int
	}
	prop := func(seed uint64, sizeRaw uint16) bool {
		size := int(sizeRaw%100) + 2
		r := rng.New(seed)
		q := New()
		var fired []int
		evs := make([]*Event, size)
		refs := make([]ref, size)
		seq := 0
		arm := func(i int, d Duration, key int64) {
			moved := refs[i].seq == 0 || refs[i].when != Time(d) || refs[i].key != key
			evs[i] = q.RescheduleKeyed(evs[i], d, key, func() { fired = append(fired, i) })
			if moved {
				seq++
				refs[i] = ref{Time(d), key, seq}
			}
		}
		for i := range evs {
			arm(i, Duration(r.Intn(20)), int64(r.Intn(4)))
		}
		for k := 0; k < size; k++ {
			i := r.Intn(size)
			arm(i, Duration(r.Intn(20)), int64(r.Intn(4)))
		}
		want := make([]int, size)
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(x, y int) bool {
			a, b := refs[want[x]], refs[want[y]]
			if a.when != b.when {
				return a.when < b.when
			}
			if a.key != b.key {
				return a.key < b.key
			}
			return a.seq < b.seq
		})
		q.Run(0)
		return reflect.DeepEqual(fired, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRescheduleKeyedZeroAlloc: moving a pending keyed event, or leaving
// it where it is, allocates nothing.
func TestRescheduleKeyedZeroAlloc(t *testing.T) {
	q := New()
	fn := func() {}
	q.At(1000000, fn)
	e := q.RescheduleKeyed(nil, 1, 3, fn)
	d := Duration(1)
	allocs := testing.AllocsPerRun(200, func() {
		e = q.RescheduleKeyed(e, d, 3, fn) // same instant: left in place
		d = 3 - d
		e = q.RescheduleKeyed(e, d, 3, fn) // moved
	})
	if allocs != 0 {
		t.Fatalf("keyed reschedule allocates %v per move, want 0", allocs)
	}
}

// TestEventSize: the key fits beside the tier, so an Event stays in the 48-byte size class that one allocation
// per fresh push (BenchmarkScheduleFire's 48 B/op) pins.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Fatalf("Event is %d bytes, want at most 48", n)
	}
}

// refDurationOf is DurationOf as it was, rounding with math.Round.
func refDurationOf(seconds float64) Duration {
	if seconds <= 0 {
		return 0
	}
	if seconds >= float64(math.MaxInt64)/float64(Second) {
		return Duration(math.MaxInt64)
	}
	return Duration(math.Round(seconds * float64(Second)))
}

// durationEdges are DurationOf inputs where rounding is delicate: zero,
// subnormals, exact half nanoseconds (m/1024 s is m·976,562.5 ns), the
// neighbours of 2^52 ns (above which every float64 is an integer), the
// saturation guard and the non-finite values.
func durationEdges() []float64 {
	guard := float64(math.MaxInt64) / float64(Second)
	edges := []float64{
		0, math.Copysign(0, -1), -1, math.SmallestNonzeroFloat64, 0x1p-1022,
		0.5e-9, 1.5e-9, 2.5e-9, 1e-9, 1,
		1.0 / 1024, 3.0 / 1024, 5.0 / 1024, 1023.0 / 1024, 1e6 + 1.0/1024,
		math.Nextafter(1.0/1024, 0), math.Nextafter(1.0/1024, 1),
		guard, math.Nextafter(guard, 0), math.Nextafter(guard, math.Inf(1)),
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range []float64{0x1p52 - 1, 0x1p52, 0x1p52 + 1, 0x1p53 - 1, 0x1p53 + 2} {
		s := x / float64(Second)
		edges = append(edges, s, math.Nextafter(s, 0), math.Nextafter(s, math.Inf(1)))
	}
	return edges
}

// FuzzDurationOf: the truncate-and-compare rounding equals math.Round for
// every input (go test -fuzz=FuzzDurationOf ./internal/eventq).
func FuzzDurationOf(f *testing.F) {
	for _, s := range durationEdges() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s float64) {
		if got, want := DurationOf(s), refDurationOf(s); got != want {
			t.Fatalf("DurationOf(%v) = %d, math.Round gives %d", s, got, want)
		}
	})
}

// TestDurationOfMatchesRound runs the fuzz property over random inputs
// on every scale from 1e-12 s to the saturation guard, and on every
// exact half nanosecond m/1024 s for odd m up to 2^20.
func TestDurationOfMatchesRound(t *testing.T) {
	r := rng.New(37)
	check := func(s float64) {
		if got, want := DurationOf(s), refDurationOf(s); got != want {
			t.Fatalf("DurationOf(%v) = %d, math.Round gives %d", s, got, want)
		}
	}
	for i := 0; i < 200000; i++ {
		check(math.Pow(10, r.Uniform(-12, 10)))
	}
	for m := 1; m < 1<<20; m += 2 {
		check(float64(m) / 1024)
	}
}

// BenchmarkQueueDepth measures the event-queue operations at a standing
// depth of 1k and 100k pending events: push-pop pushes one event a
// random delay ahead and fires the earliest (one allocation, as on the
// paper side); reschedule moves a random pending event to a random new
// instant (RescheduleAfter); reschedule-same reschedules one to the
// instant and key it already holds (RescheduleKeyed's in-place path, the
// cluster's unmoved completion); cancel removes one and re-arms it.
func BenchmarkQueueDepth(b *testing.B) {
	const span = 1 << 20 // ns of pending horizon
	fn := func() {}
	for _, depth := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"100k", 100000}} {
		setup := func() (*Queue, []*Event, []Duration) {
			r := rng.New(7)
			q := New()
			evs := make([]*Event, depth.n)
			for i := range evs {
				evs[i] = q.RescheduleKeyed(nil, Duration(r.Intn(span)), int64(i), fn)
			}
			delays := make([]Duration, 4096)
			for i := range delays {
				delays[i] = Duration(r.Intn(span))
			}
			return q, evs, delays
		}
		b.Run(depth.name+"/push-pop", func(b *testing.B) {
			q, _, delays := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.After(delays[i%len(delays)], fn)
				q.Step()
			}
		})
		b.Run(depth.name+"/reschedule", func(b *testing.B) {
			q, evs, delays := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % len(evs)
				evs[k] = q.RescheduleAfter(evs[k], delays[i%len(delays)], fn)
			}
		})
		b.Run(depth.name+"/reschedule-same", func(b *testing.B) {
			q, evs, _ := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % len(evs)
				e := evs[k]
				evs[k] = q.RescheduleKeyed(e, Duration(e.Time()-q.Now()), int64(k), fn)
			}
		})
		b.Run(depth.name+"/cancel", func(b *testing.B) {
			q, evs, delays := setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i * 7919) % len(evs)
				q.Cancel(evs[k])
				evs[k] = q.ReuseAfter(evs[k], delays[i%len(delays)], fn)
			}
		})
	}
}
