package netmodel

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"dpsim/internal/eventq"
	"dpsim/internal/rng"
)

func newNet(p Params) (*eventq.Queue, *Network) {
	q := eventq.New()
	return q, New(q, p)
}

func TestSingleTransferOptimisticTime(t *testing.T) {
	p := Params{Latency: 100 * eventq.Microsecond, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var doneAt eventq.Time
	n.Send(0, 1, 1_000_000, nil, func(*Transfer) { doneAt = q.Now() })
	q.Run(0)
	want := eventq.Time(100*eventq.Microsecond) + eventq.Time(eventq.Second)
	if doneAt != want {
		t.Fatalf("single transfer finished at %v, want %v", doneAt, want)
	}
	if got := n.OptimisticTime(1_000_000); eventq.Time(got) != want {
		t.Fatalf("OptimisticTime = %v, want %v", got, want)
	}
}

func TestZeroSizeIsLatencyOnly(t *testing.T) {
	p := Params{Latency: 50 * eventq.Microsecond, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var doneAt eventq.Time
	n.Send(0, 1, 0, nil, func(*Transfer) { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(50*eventq.Microsecond) {
		t.Fatalf("zero-size transfer at %v, want latency only", doneAt)
	}
}

func TestLocalTransferSkipsBandwidth(t *testing.T) {
	p := Params{Latency: 10 * eventq.Microsecond, Bandwidth: 1e3, Contention: true}
	q, n := newNet(p)
	var doneAt eventq.Time
	n.Send(2, 2, 1<<30, nil, func(*Transfer) { doneAt = q.Now() })
	q.Run(0)
	if doneAt != eventq.Time(10*eventq.Microsecond) {
		t.Fatalf("local transfer took %v, want latency only", doneAt)
	}
	if n.ActiveIn(2) != 0 || n.ActiveOut(2) != 0 {
		t.Fatal("local transfer left port counters non-zero")
	}
}

func TestTwoOutgoingShareBandwidth(t *testing.T) {
	// Two simultaneous 1MB transfers out of node 0 to different
	// destinations share the uplink: each runs at b/2 and takes 2s + l.
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var times []eventq.Time
	for dst := 1; dst <= 2; dst++ {
		n.Send(0, dst, 1_000_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	}
	q.Run(0)
	if len(times) != 2 {
		t.Fatalf("completed %d transfers", len(times))
	}
	for _, at := range times {
		if at != 2*eventq.Time(eventq.Second) {
			t.Fatalf("shared transfer finished at %v, want 2s", at)
		}
	}
}

func TestTwoIncomingShareBandwidth(t *testing.T) {
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var times []eventq.Time
	for src := 1; src <= 2; src++ {
		n.Send(src, 0, 500_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	}
	q.Run(0)
	for _, at := range times {
		if at != eventq.Time(eventq.Second) {
			t.Fatalf("incoming shared transfer finished at %v, want 1s", at)
		}
	}
}

func TestDisjointPairsDoNotContend(t *testing.T) {
	// 0→1 and 2→3 share no port: full bandwidth each (crossbar never a
	// bottleneck).
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var times []eventq.Time
	n.Send(0, 1, 1_000_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	n.Send(2, 3, 1_000_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	q.Run(0)
	for _, at := range times {
		if at != eventq.Time(eventq.Second) {
			t.Fatalf("disjoint transfer finished at %v, want 1s", at)
		}
	}
}

func TestContentionDisabledAblation(t *testing.T) {
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: false}
	q, n := newNet(p)
	var times []eventq.Time
	for dst := 1; dst <= 4; dst++ {
		n.Send(0, dst, 1_000_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	}
	q.Run(0)
	for _, at := range times {
		if at != eventq.Time(eventq.Second) {
			t.Fatalf("no-contention transfer finished at %v, want 1s", at)
		}
	}
}

func TestRateReadjustsWhenFlowEnds(t *testing.T) {
	// Transfer A (2MB) and B (1MB) leave node 0 at t=0 sharing b=1e6.
	// B finishes at t=2s (rate 0.5e6). A then speeds up to full rate and
	// finishes its remaining 1MB at t=3s.
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var aDone, bDone eventq.Time
	n.Send(0, 1, 2_000_000, nil, func(*Transfer) { aDone = q.Now() })
	n.Send(0, 2, 1_000_000, nil, func(*Transfer) { bDone = q.Now() })
	q.Run(0)
	if bDone != 2*eventq.Time(eventq.Second) {
		t.Fatalf("B finished at %v, want 2s", bDone)
	}
	if aDone != 3*eventq.Time(eventq.Second) {
		t.Fatalf("A finished at %v, want 3s", aDone)
	}
}

func TestLateArrivalSlowsExisting(t *testing.T) {
	// A (1MB) starts alone; at t=0.5s (via a scheduled send) B (1MB) joins
	// the same uplink. A has 0.5MB left, now at rate 0.5e6 → finishes at
	// 1.5s. B finishes at 0.5 + 1/0.5 = 2.5s... but when A ends at 1.5s, B
	// has 0.5MB left and speeds to full rate → 2.0s.
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var aDone, bDone eventq.Time
	n.Send(0, 1, 1_000_000, nil, func(*Transfer) { aDone = q.Now() })
	q.After(500*eventq.Millisecond, func() {
		n.Send(0, 2, 1_000_000, nil, func(*Transfer) { bDone = q.Now() })
	})
	q.Run(0)
	if aDone != eventq.Time(1500*eventq.Millisecond) {
		t.Fatalf("A finished at %v, want 1.5s", aDone)
	}
	if bDone != eventq.Time(2*eventq.Second) {
		t.Fatalf("B finished at %v, want 2s", bDone)
	}
}

func TestMinOfInOutShares(t *testing.T) {
	// Node 0 sends to node 1 while node 2 also sends to node 1: each
	// sender is alone on its uplink but they share node 1's downlink.
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	var times []eventq.Time
	n.Send(0, 1, 1_000_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	n.Send(2, 1, 1_000_000, nil, func(*Transfer) { times = append(times, q.Now()) })
	q.Run(0)
	for _, at := range times {
		if at != 2*eventq.Time(eventq.Second) {
			t.Fatalf("downlink-shared transfer finished at %v, want 2s", at)
		}
	}
}

type recordingListener struct {
	events [][3]int
}

func (r *recordingListener) PortsChanged(node, in, out int) {
	r.events = append(r.events, [3]int{node, in, out})
}

func TestListenerNotified(t *testing.T) {
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	l := &recordingListener{}
	n.SetListener(l)
	n.Send(0, 1, 1000, nil, nil)
	q.Run(0)
	if len(l.events) < 2 {
		t.Fatalf("listener saw %d events, want >= 2 (start + end)", len(l.events))
	}
	// Final state: all ports idle.
	if n.ActiveIn(1) != 0 || n.ActiveOut(0) != 0 {
		t.Fatal("ports not idle after completion")
	}
}

func TestStatsAccounting(t *testing.T) {
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	n.Send(0, 1, 1000, nil, nil)
	n.Send(1, 0, 500, nil, nil)
	q.Run(0)
	if n.TotalTransfers() != 2 || n.TotalBytes() != 1500 {
		t.Fatalf("stats: %d transfers %d bytes", n.TotalTransfers(), n.TotalBytes())
	}
	if n.BytesOut(0) != 1000 || n.BytesIn(0) != 500 {
		t.Fatalf("node 0 bytes out=%d in=%d", n.BytesOut(0), n.BytesIn(0))
	}
	if n.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", n.InFlight())
	}
}

func TestPayloadDelivered(t *testing.T) {
	p := Params{Latency: 0, Bandwidth: 1e6, Contention: true}
	q, n := newNet(p)
	type obj struct{ v int }
	var got *obj
	n.Send(0, 1, 10, &obj{v: 7}, func(tr *Transfer) { got = tr.Payload.(*obj) })
	q.Run(0)
	if got == nil || got.v != 7 {
		t.Fatal("payload not delivered")
	}
}

// Property: total delivered bytes equals the sum of submitted sizes, and
// every completion happens no earlier than the optimistic time.
func TestPropertyConservationAndOptimism(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		p := Params{Latency: 20 * eventq.Microsecond, Bandwidth: 1e6, Contention: true}
		q, n := newNet(p)
		var want int64
		ok := true
		completed := 0
		rnd := seed
		next := func(mod int) int {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			v := int(rnd>>33) % mod
			if v < 0 {
				v = -v
			}
			return v
		}
		for i := 0; i < k; i++ {
			src := next(4)
			dst := next(4)
			size := int64(next(1_000_000) + 1)
			want += size
			submitted := q.Now()
			opt := n.OptimisticTime(size)
			n.Send(src, dst, size, nil, func(tr *Transfer) {
				completed++
				if q.Now() < submitted.Add(opt) && tr.Src != tr.Dst {
					ok = false
				}
			})
		}
		q.Run(0)
		return ok && completed == k && n.TotalBytes() == want && n.InFlight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkThousandConcurrentTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := Params{Latency: 100 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true}
		q, n := newNet(p)
		for j := 0; j < 1000; j++ {
			n.Send(j%8, (j+1)%8, int64(1000+j), nil, nil)
		}
		q.Run(0)
	}
}

func TestMaxMinRedistributesSlack(t *testing.T) {
	// Flows: A 0→1, B 0→2, C 3→2. Equal-share: A and B each get b/2 on
	// node 0's uplink; B and C each get b/2 on node 2's downlink; C gets
	// min(b, b/2) = b/2 — node 3's uplink is half idle. Max-min gives C
	// the same b/2 here, but when B finishes, A must get the full b under
	// both. The distinguishing case: B is bottlenecked at 0's uplink
	// (b/2), so max-min gives C the remaining b/2 + slack... with two
	// flows per port the shares coincide; use three flows on one port and
	// one elsewhere to expose redistribution.
	//
	// D,E,F leave node 0 (share b/3 each); F's destination node 1 also
	// receives G from node 2. Equal share: G = min(b, b/2) = b/2. Max-min:
	// F is frozen at b/3 by node 0's uplink, so G gets b - b/3 = 2b/3.
	p := Params{Latency: 0, Bandwidth: 9e5, Contention: true, MaxMin: true}
	q, n := newNet(p)
	var gDone eventq.Time
	n.Send(0, 3, 900_000, nil, nil)                                 // D
	n.Send(0, 4, 900_000, nil, nil)                                 // E
	n.Send(0, 1, 900_000, nil, nil)                                 // F
	n.Send(2, 1, 600_000, nil, func(*Transfer) { gDone = q.Now() }) // G
	q.Run(0)
	// G at 2b/3 = 6e5 B/s finishes its 600KB in ~1s. Under equal share it
	// would run at b/2 = 4.5e5 → ~1.33s.
	if gDone > eventq.Time(1100*eventq.Millisecond) {
		t.Fatalf("max-min did not redistribute slack: G finished at %v, want ≈1s", gDone)
	}
	if gDone < eventq.Time(900*eventq.Millisecond) {
		t.Fatalf("G finished implausibly fast: %v", gDone)
	}
}

func TestMaxMinConservesBytes(t *testing.T) {
	p := Params{Latency: 10 * eventq.Microsecond, Bandwidth: 1e6, Contention: true, MaxMin: true}
	q, n := newNet(p)
	var want int64
	for i := 0; i < 25; i++ {
		size := int64(10_000 * (i + 1))
		want += size
		n.Send(i%5, (i+2)%5, size, nil, nil)
	}
	q.Run(0)
	if n.TotalBytes() != want {
		t.Fatalf("max-min lost bytes: %d != %d", n.TotalBytes(), want)
	}
	if n.InFlight() != 0 {
		t.Fatal("flows left in flight")
	}
}

func TestMaxMinNeverSlowerThanEqualShare(t *testing.T) {
	// Max-min is work-conserving: the drain time of any workload must not
	// exceed the equal-share drain time.
	run := func(maxmin bool) eventq.Time {
		p := Params{Latency: 0, Bandwidth: 1e6, Contention: true, MaxMin: maxmin}
		q, n := newNet(p)
		for i := 0; i < 12; i++ {
			n.Send(i%4, (i+1+i%3)%4, int64(200_000+i*50_000), nil, nil)
		}
		q.Run(0)
		return q.Now()
	}
	if mm, eq := run(true), run(false); mm > eq {
		t.Fatalf("max-min (%v) slower than equal share (%v)", mm, eq)
	}
}

// --- differential reference: the reflow this package shipped before the
// ordered-slice rewrite, kept verbatim (map of flows, per-reflow sorted id
// slice, Cancel + After with a fresh closure per flowing transfer) as the
// oracle the production model must match event for event. ---

type refTransfer struct {
	id        uint64
	src, dst  int
	size      int64
	remaining float64
	rate      float64
	last      eventq.Time
	finish    *eventq.Event
	done      func(id uint64)
	flowing   bool
}

type refNetwork struct {
	q         *eventq.Queue
	p         Params
	listener  Listener
	nextID    uint64
	activeIn  map[int]int
	activeOut map[int]int
	flows     map[uint64]*refTransfer
}

func newRefNetwork(q *eventq.Queue, p Params) *refNetwork {
	return &refNetwork{q: q, p: p, activeIn: map[int]int{}, activeOut: map[int]int{}, flows: map[uint64]*refTransfer{}}
}

func (n *refNetwork) send(src, dst int, size int64, done func(id uint64)) {
	if size < 0 {
		size = 0
	}
	t := &refTransfer{id: n.nextID, src: src, dst: dst, size: size, remaining: float64(size), done: done}
	n.nextID++
	n.flows[t.id] = t
	n.q.After(n.p.Latency, func() { n.beginFlow(t) })
}

func (n *refNetwork) beginFlow(t *refTransfer) {
	if t.src == t.dst || t.remaining <= 0 {
		n.complete(t)
		return
	}
	t.flowing = true
	t.last = n.q.Now()
	n.activeOut[t.src]++
	n.activeIn[t.dst]++
	n.notify(t.src)
	if t.dst != t.src {
		n.notify(t.dst)
	}
	n.reflow()
}

func (n *refNetwork) complete(t *refTransfer) {
	delete(n.flows, t.id)
	wasFlowing := t.flowing
	if wasFlowing {
		t.flowing = false
		n.activeOut[t.src]--
		n.activeIn[t.dst]--
		n.notify(t.src)
		n.notify(t.dst)
	}
	done := t.done
	t.done = nil
	if wasFlowing {
		n.reflow()
	}
	if done != nil {
		done(t.id)
	}
}

func (n *refNetwork) notify(node int) {
	if n.listener != nil {
		n.listener.PortsChanged(node, n.activeIn[node], n.activeOut[node])
	}
}

func (n *refNetwork) rateOf(t *refTransfer) float64 {
	if !n.p.Contention {
		return n.p.Bandwidth
	}
	out := n.activeOut[t.src]
	in := n.activeIn[t.dst]
	if out < 1 {
		out = 1
	}
	if in < 1 {
		in = 1
	}
	shareOut := n.p.Bandwidth / float64(out)
	shareIn := n.p.Bandwidth / float64(in)
	if shareOut < shareIn {
		return shareOut
	}
	return shareIn
}

func (n *refNetwork) reflow() {
	now := n.q.Now()
	ids := make([]uint64, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var maxmin map[uint64]float64
	if n.p.MaxMin && n.p.Contention {
		maxmin = n.maxMinRates(ids)
	}
	for _, id := range ids {
		t := n.flows[id]
		if !t.flowing {
			continue
		}
		dt := (now - t.last).Seconds()
		if dt > 0 && t.rate > 0 {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
		t.last = now
		if maxmin != nil {
			t.rate = maxmin[id]
		} else {
			t.rate = n.rateOf(t)
		}
		if t.finish != nil {
			n.q.Cancel(t.finish)
			t.finish = nil
		}
		eta := eventq.DurationOf(t.remaining / t.rate)
		tt := t
		t.finish = n.q.After(eta, func() {
			tt.remaining = 0
			n.complete(tt)
		})
	}
}

func (n *refNetwork) maxMinRates(ids []uint64) map[uint64]float64 {
	type port struct {
		capacity float64
		flows    []uint64
	}
	ports := make(map[[2]int]*port)
	rates := make(map[uint64]float64)
	var active []uint64
	for _, id := range ids {
		t := n.flows[id]
		if !t.flowing {
			continue
		}
		active = append(active, id)
		for _, key := range [][2]int{{0, t.src}, {1, t.dst}} {
			p := ports[key]
			if p == nil {
				p = &port{capacity: n.p.Bandwidth}
				ports[key] = p
			}
			p.flows = append(p.flows, id)
		}
	}
	frozen := make(map[uint64]bool)
	for len(frozen) < len(active) {
		var bestKey [2]int
		bestShare := -1.0
		keys := make([][2]int, 0, len(ports))
		for k := range ports {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			p := ports[k]
			unfrozen := 0
			for _, id := range p.flows {
				if !frozen[id] {
					unfrozen++
				}
			}
			if unfrozen == 0 {
				continue
			}
			share := p.capacity / float64(unfrozen)
			if bestShare < 0 || share < bestShare {
				bestShare = share
				bestKey = k
			}
		}
		if bestShare < 0 {
			break
		}
		for _, id := range ports[bestKey].flows {
			if frozen[id] {
				continue
			}
			frozen[id] = true
			rates[id] = bestShare
			t := n.flows[id]
			for _, k := range [][2]int{{0, t.src}, {1, t.dst}} {
				if k == bestKey {
					continue
				}
				ports[k].capacity -= bestShare
				if ports[k].capacity < 0 {
					ports[k].capacity = 0
				}
			}
		}
		ports[bestKey].capacity = 0
	}
	return rates
}

// netOp is one scripted Send: when, what, and the sends its completion
// callback issues in turn (re-entering the model from inside complete).
type netOp struct {
	at       eventq.Time
	src, dst int
	size     int64
	then     []netOp
}

// netScript draws a seeded random script over 5 nodes: bursts at one
// instant (same-instant FIFO order), local and zero-byte transfers,
// sizes from a few bytes to a megabyte, and follow-up sends from
// completion callbacks.
func netScript(seed uint64, k int) []netOp {
	src := rng.New(seed)
	var gen func(depth int) netOp
	gen = func(depth int) netOp {
		op := netOp{src: src.Intn(5), dst: src.Intn(5)}
		switch src.Intn(6) {
		case 0:
			op.size = 0
		case 1:
			op.size = int64(src.Intn(64))
		default:
			op.size = int64(src.Intn(1_000_000)) + 1
		}
		for depth < 2 && src.Intn(4) == 0 {
			op.then = append(op.then, gen(depth+1))
		}
		return op
	}
	var at eventq.Time
	ops := make([]netOp, k)
	for i := range ops {
		if src.Intn(3) > 0 { // one in three joins the previous instant's burst
			at += eventq.Time(src.Intn(40_000_000))
		}
		ops[i] = gen(0)
		ops[i].at = at
	}
	return ops
}

// netRecord is everything observable about a run: completions and port
// notifications with their instants, in order, and the event count.
type netRecord struct {
	log   []string
	fired uint64
	end   eventq.Time
}

func (r *netRecord) PortsChanged(node, in, out int) {
	r.log = append(r.log, fmt.Sprintf("ports node=%d in=%d out=%d", node, in, out))
}

// playNet runs script through send (either model) and records the run.
func playNet(q *eventq.Queue, rec *netRecord, script []netOp, send func(src, dst int, size int64, done func(id uint64))) {
	var issue func(op netOp)
	issue = func(op netOp) {
		send(op.src, op.dst, op.size, func(id uint64) {
			rec.log = append(rec.log, fmt.Sprintf("done id=%d at=%d", id, q.Now()))
			for _, next := range op.then {
				issue(next)
			}
		})
	}
	for _, op := range script {
		op := op
		q.At(op.at, func() { issue(op) })
	}
	q.Run(0)
	rec.fired, rec.end = q.Fired(), q.Now()
}

func TestReflowMatchesReference(t *testing.T) {
	modes := map[string]Params{
		"contention":    {Latency: 150 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true},
		"no-contention": {Latency: 150 * eventq.Microsecond, Bandwidth: 12.5e6},
		"max-min":       {Latency: 150 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true, MaxMin: true},
		"zero-latency":  {Bandwidth: 1e6, Contention: true},
	}
	for name, p := range modes {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				script := netScript(seed, 60)

				var want netRecord
				rq := eventq.New()
				ref := newRefNetwork(rq, p)
				ref.listener = &want
				playNet(rq, &want, script, ref.send)

				var got netRecord
				q, n := newNet(p)
				n.SetListener(&got)
				playNet(q, &got, script, func(src, dst int, size int64, done func(id uint64)) {
					n.Send(src, dst, size, nil, func(tr *Transfer) { done(tr.ID) })
				})

				if got.fired != want.fired || got.end != want.end {
					t.Fatalf("seed %d: fired %d events ending at %v, reference %d ending at %v",
						seed, got.fired, got.end, want.fired, want.end)
				}
				if len(got.log) != len(want.log) {
					t.Fatalf("seed %d: %d records, reference %d", seed, len(got.log), len(want.log))
				}
				for i := range want.log {
					if got.log[i] != want.log[i] {
						t.Fatalf("seed %d: record %d = %q, reference %q", seed, i, got.log[i], want.log[i])
					}
				}
				if n.InFlight() != 0 || len(n.flowing) != 0 {
					t.Fatalf("seed %d: %d in flight, %d flowing after drain", seed, n.InFlight(), len(n.flowing))
				}
			}
		})
	}
}

// TestReflowZeroAllocSteadyState: with the set of flowing transfers fixed,
// a reflow (what every start and completion triggers for all the others)
// moves each transfer's one event and allocates nothing.
func TestReflowZeroAllocSteadyState(t *testing.T) {
	for _, contention := range []bool{true, false} {
		q, n := newNet(Params{Latency: 100 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: contention})
		for j := 0; j < 64; j++ {
			n.Send(j%8, (j+1)%8, 1<<30, nil, nil)
		}
		q.RunUntil(eventq.Time(eventq.Millisecond)) // all past the latency phase
		if len(n.flowing) != 64 {
			t.Fatalf("%d flowing, want 64", len(n.flowing))
		}
		now := q.Now()
		if allocs := testing.AllocsPerRun(100, func() {
			now += eventq.Time(eventq.Millisecond)
			q.RunUntil(now) // no completion is due: only the clock moves
			n.reflow()
		}); allocs != 0 {
			t.Errorf("contention=%v: reflow of 64 flowing transfers allocates %v/op, want 0", contention, allocs)
		}
	}
}
