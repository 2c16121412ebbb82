package testbed

import (
	"fmt"
	"testing"

	"dpsim/internal/core"
	"dpsim/internal/cpumodel"
	"dpsim/internal/dps"
	"dpsim/internal/eventq"
	"dpsim/internal/netmodel"
	"dpsim/internal/rng"
	"dpsim/internal/serial"
)

// simNetParams/simCPUParams are the simulator-side model parameters used
// when comparing prediction against the testbed.
func simNetParams() netmodel.Params {
	return netmodel.Params{Latency: 200 * eventq.Microsecond, Bandwidth: 12.5e6, Contention: true}
}

func simCPUParams() cpumodel.Params { return cpumodel.Defaults() }

func quietParams(nodes int) Params {
	p := FastEthernetCluster(nodes, 1)
	p.JitterCV = 0
	p.ComputeNoiseCV = 0
	p.NodeSpeedCV = 0
	return p
}

func TestSingleMessageTiming(t *testing.T) {
	p := quietParams(2)
	c := New(p)
	var doneAt eventq.Time
	c.Send(0, 1, 1500, func() { doneAt = c.Queue().Now() })
	c.Queue().Run(0)
	// One segment: overhead + serialize + wire + deserialize.
	ser := eventq.DurationOf(1500 / p.LinkBandwidth)
	want := eventq.Time(p.MsgOverhead + ser + p.WireLatency + ser)
	if doneAt != want {
		t.Fatalf("1500B message arrived at %v, want %v", doneAt, want)
	}
}

func TestSegmentationPipelines(t *testing.T) {
	// A large message's segments pipeline: total ≈ overhead + n·ser +
	// wire + ser, substantially less than n·(2ser+wire).
	p := quietParams(2)
	c := New(p)
	const size = 150_000 // 100 segments
	var doneAt eventq.Time
	c.Send(0, 1, size, func() { doneAt = c.Queue().Now() })
	c.Queue().Run(0)
	ser := eventq.DurationOf(float64(p.MTU) / p.LinkBandwidth)
	pipelined := eventq.Time(p.MsgOverhead + 100*ser + p.WireLatency + ser)
	naive := eventq.Time(p.MsgOverhead + 100*(2*ser+p.WireLatency))
	if doneAt > pipelined+eventq.Time(eventq.Millisecond) {
		t.Fatalf("segmented transfer at %v, want ≈ %v (pipelined)", doneAt, pipelined)
	}
	if doneAt >= naive {
		t.Fatalf("segments did not pipeline: %v >= %v", doneAt, naive)
	}
}

func TestConcurrentTransfersShareUplink(t *testing.T) {
	p := quietParams(3)
	c := New(p)
	var times []eventq.Time
	const size = 750_000 // 0.06s alone
	c.Send(0, 1, size, func() { times = append(times, c.Queue().Now()) })
	c.Send(0, 2, size, func() { times = append(times, c.Queue().Now()) })
	c.Queue().Run(0)
	if len(times) != 2 {
		t.Fatalf("finished %d transfers", len(times))
	}
	alone := eventq.DurationOf(float64(size) / p.LinkBandwidth)
	// Interleaved on the same uplink: both finish near 2x the solo time.
	lo := eventq.Time(alone) * 17 / 10
	hi := eventq.Time(alone)*23/10 + eventq.Time(10*eventq.Millisecond)
	for _, at := range times {
		if at < lo || at > hi {
			t.Fatalf("shared transfer finished at %v, want within [%v, %v]", at, lo, hi)
		}
	}
}

func TestLocalMessageCheap(t *testing.T) {
	p := quietParams(2)
	c := New(p)
	var doneAt eventq.Time
	c.Send(1, 1, 1<<20, func() { doneAt = c.Queue().Now() })
	c.Queue().Run(0)
	if doneAt != eventq.Time(p.MsgOverhead) {
		t.Fatalf("local message at %v, want %v", doneAt, p.MsgOverhead)
	}
}

func TestZeroByteMessageStillCrossesWire(t *testing.T) {
	p := quietParams(2)
	c := New(p)
	var doneAt eventq.Time
	c.Send(0, 1, 0, func() { doneAt = c.Queue().Now() })
	c.Queue().Run(0)
	if doneAt <= eventq.Time(p.MsgOverhead) {
		t.Fatalf("zero-byte message at %v, want > message overhead", doneAt)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func(seed uint64) eventq.Time {
		p := FastEthernetCluster(4, seed)
		c := New(p)
		var last eventq.Time
		for i := 0; i < 50; i++ {
			c.Send(i%4, (i+1)%4, int64(1000*(i+1)), func() { last = c.Queue().Now() })
		}
		c.Queue().Run(0)
		return last
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different timelines")
	}
	if run(7) == run(8) {
		t.Fatal("different seeds produced identical jittered timelines")
	}
}

func TestComputeNoiseThroughDurationSource(t *testing.T) {
	p := FastEthernetCluster(1, 3)
	c := New(p)
	src := c.DurationSource()
	base := 10 * eventq.Millisecond
	var min, max eventq.Duration
	for i := 0; i < 200; i++ {
		d := src.StepWork("k", base, nil)
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min == max {
		t.Fatal("duration source produced no noise")
	}
	if min < base {
		// Dispatch overhead shifts the mean above base; noise can dip
		// below base+overhead but should stay near it.
		if float64(min) < 0.85*float64(base) {
			t.Fatalf("noise min %v implausibly low", min)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := quietParams(2)
	c := New(p)
	c.Send(0, 1, 5000, nil)
	c.Send(1, 0, 3000, nil)
	c.Queue().Run(0)
	if c.TotalTransfers() != 2 {
		t.Fatalf("transfers = %d", c.TotalTransfers())
	}
	if c.TotalBytes() != 8000 {
		t.Fatalf("bytes = %d", c.TotalBytes())
	}
}

// TestMessagesZeroAllocSteadyState: a finished transfer returns to the
// cluster's free list with its events and callbacks, so once the pool is
// warm a message allocates nothing, whatever its segment count.
func TestMessagesZeroAllocSteadyState(t *testing.T) {
	c := New(FastEthernetCluster(2, 1))
	done := func() {}
	for _, m := range []struct {
		name     string
		src, dst int
		size     int64
	}{
		{"1-segment", 0, 1, 1500},
		{"100-segment", 0, 1, 150_000},
		{"local", 1, 1, 150_000},
	} {
		send := func() {
			c.Send(m.src, m.dst, m.size, done)
			c.Queue().Run(0)
		}
		send()
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Errorf("%s message allocates %v/op, want 0", m.name, allocs)
		}
	}
}

// --- differential reference: the transfer code this package shipped
// before one arrival per message, kept as it was (a pooled arrival event
// per MTU segment, counting bytes into transfer.arrived, the last of which
// completes the message) as the oracle the production testbed must match
// completion for completion and draw for draw. ---

type refCluster struct {
	q     *eventq.Queue
	p     Params
	cpus  []*cpumodel.CPU
	rnd   *rng.Source
	ports []*port

	freeArrivals []*refArrival

	totalBytes     int64
	totalTransfers uint64
}

func newRefCluster(p Params) *refCluster {
	q := eventq.New()
	c := &refCluster{q: q, p: p, rnd: rng.New(p.Seed)}
	c.cpus = make([]*cpumodel.CPU, p.Nodes)
	c.ports = make([]*port, p.Nodes)
	for i := range c.cpus {
		cp := cpumodel.Params{
			Power:        1.0,
			RecvOverhead: p.RecvSegmentCost,
			SendOverhead: p.SendSegmentCost,
			MinAvailable: 0.05,
			Sharing:      true,
			CommOverhead: true,
		}
		if p.NodeSpeedCV > 0 {
			cp.Power = c.rnd.LogNormal(p.NodeSpeedCV)
		}
		c.cpus[i] = cpumodel.New(q, i, cp)
		c.ports[i] = &port{}
	}
	return c
}

func (c *refCluster) Submit(node int, work eventq.Duration, done func()) {
	c.cpus[node].Submit(work, done)
}

func (c *refCluster) Send(src, dst int, size int64, done func()) {
	if size < 0 {
		size = 0
	}
	if src == dst {
		c.q.After(c.p.MsgOverhead, done)
		return
	}
	t := &refTransfer{cluster: c, src: src, dst: dst, size: size, done: done}
	t.issue = t.issueSegment
	c.ports[src].activeOut++
	c.ports[dst].activeIn++
	c.notifyCPU(src)
	c.notifyCPU(dst)
	t.issueEv = c.q.After(c.p.MsgOverhead, t.issue)
}

func (c *refCluster) notifyCPU(node int) {
	p := c.ports[node]
	c.cpus[node].SetTransfers(p.activeIn, p.activeOut)
}

func (c *refCluster) StepWork(analytic eventq.Duration) eventq.Duration {
	d := analytic + c.p.DispatchOverhead
	if c.p.ComputeNoiseCV > 0 {
		d = eventq.Duration(float64(d) * c.rnd.LogNormal(c.p.ComputeNoiseCV))
	}
	return d
}

type refTransfer struct {
	cluster  *refCluster
	src, dst int
	size     int64
	issued   int64
	arrived  int64
	done     func()
	issue    func()
	issueEv  *eventq.Event
}

type refArrival struct {
	t    *refTransfer
	seg  int64
	ev   *eventq.Event
	fire func()
}

func (c *refCluster) scheduleArrival(t *refTransfer, seg int64, at eventq.Time) {
	var a *refArrival
	if n := len(c.freeArrivals); n > 0 {
		a, c.freeArrivals = c.freeArrivals[n-1], c.freeArrivals[:n-1]
	} else {
		a = &refArrival{}
		a.fire = func() {
			t, seg := a.t, a.seg
			a.t = nil
			c.freeArrivals = append(c.freeArrivals, a)
			t.arrived += seg
			if t.arrived >= t.size {
				t.finish()
			}
		}
	}
	a.t, a.seg = t, seg
	a.ev = c.q.ReuseAtTier(a.ev, at, 0, a.fire)
}

func (t *refTransfer) issueSegment() {
	c := t.cluster
	seg := t.size - t.issued
	if seg > c.p.MTU {
		seg = c.p.MTU
	}
	t.issued += seg
	wire := seg
	if wire < 64 {
		wire = 64
	}
	serTime := eventq.DurationOf(float64(wire) / c.p.LinkBandwidth)
	if c.p.JitterCV > 0 {
		serTime = eventq.Duration(float64(serTime) * c.rnd.LogNormal(c.p.JitterCV))
	}
	now := c.q.Now()
	srcPort := c.ports[t.src]
	outStart := maxTime(now, srcPort.outBusyUntil)
	outDone := outStart.Add(serTime)
	srcPort.outBusyUntil = outDone
	wireDone := outDone.Add(c.p.WireLatency)
	dstPort := c.ports[t.dst]
	inStart := maxTime(wireDone, dstPort.inBusyUntil)
	inDone := inStart.Add(serTime)
	dstPort.inBusyUntil = inDone
	if t.issued < t.size {
		t.issueEv = c.q.ReuseAtTier(t.issueEv, outDone, 0, t.issue)
	}
	c.scheduleArrival(t, seg, inDone)
}

func (t *refTransfer) finish() {
	c := t.cluster
	c.ports[t.src].activeOut--
	c.ports[t.dst].activeIn--
	c.notifyCPU(t.src)
	c.notifyCPU(t.dst)
	c.totalTransfers++
	c.totalBytes += t.arrived
	if t.done != nil {
		t.done()
	}
}

// tbOp is one scripted action: a message (with the messages its done
// callback sends in turn), a compute step whose work the duration source
// draws when it starts, or a bare duration-source draw.
type tbOp struct {
	at       eventq.Time
	kind     tbKind
	src, dst int   // message ends; src is the node of a compute step
	size     int64 // message bytes, or a compute step's analytic work in ns
	then     []tbOp
}

type tbKind int

const (
	tbSend tbKind = iota
	tbCompute
	tbDraw
)

// tbScript draws a seeded random script over nodes nodes: bursts of
// messages at one instant that share source and destination ports,
// zero-byte, sub-MTU, whole-MTU, multi-MTU and 100-segment messages, local
// ones, messages sent from done callbacks, and compute steps and bare
// draws that interleave their noise draws with the segments' jitter.
func tbScript(seed uint64, nodes, k int) []tbOp {
	src := rng.New(seed)
	size := func() int64 {
		switch src.Intn(6) {
		case 0:
			return 0
		case 1:
			return int64(src.Intn(1499)) + 1
		case 2:
			return 1500 * int64(src.Intn(3)+1)
		case 3:
			return int64(src.Intn(30_000))
		case 4:
			return 150_000
		default:
			return 64
		}
	}
	var gen func(depth int) tbOp
	gen = func(depth int) tbOp {
		op := tbOp{kind: tbSend, src: src.Intn(nodes), size: size()}
		op.dst = op.src
		if src.Intn(5) > 0 {
			op.dst = src.Intn(nodes)
		}
		for depth < 2 && src.Intn(4) == 0 {
			op.then = append(op.then, gen(depth+1))
		}
		return op
	}
	var at eventq.Time
	ops := make([]tbOp, k)
	for i := range ops {
		if src.Intn(3) > 0 { // one in three joins the previous instant's burst
			at += eventq.Time(src.Intn(2_000_000))
		}
		switch src.Intn(6) {
		case 0:
			ops[i] = tbOp{kind: tbCompute, src: src.Intn(nodes), size: int64(src.Intn(5_000_000))}
		case 1:
			ops[i] = tbOp{kind: tbDraw}
		default:
			ops[i] = gen(0)
		}
		ops[i].at = at
	}
	return ops
}

// tbPlay is what playTestbed needs of either cluster.
type tbPlay struct {
	q        *eventq.Queue
	ports    []*port
	send     func(src, dst int, size int64, done func())
	submit   func(node int, work eventq.Duration, done func())
	stepWork func(analytic eventq.Duration) eventq.Duration
}

// playTestbed runs script and returns the completions in firing order
// (script-order message or step number and instant), every change of a
// node's transfer counts as its CPU was told of it, and the segments and
// messages that crossed the network.
func playTestbed(pl tbPlay, mtu int64, script []tbOp) (done, notified []string, segments, messages uint64) {
	n := 0
	var issue func(op tbOp)
	issue = func(op tbOp) {
		id := n
		n++
		switch op.kind {
		case tbDraw:
			pl.stepWork(eventq.Duration(op.size))
		case tbCompute:
			pl.submit(op.src, pl.stepWork(eventq.Duration(op.size)), func() {
				done = append(done, fmt.Sprintf("step %d at=%d", id, pl.q.Now()))
			})
		case tbSend:
			if op.src != op.dst {
				messages++
				segments += max(1, uint64((op.size+mtu-1)/mtu))
			}
			pl.send(op.src, op.dst, op.size, func() {
				done = append(done, fmt.Sprintf("msg %d at=%d", id, pl.q.Now()))
				for _, next := range op.then {
					issue(next)
				}
			})
		}
	}
	for _, op := range script {
		pl.q.At(op.at, func() { issue(op) })
	}
	told := make([][2]int, len(pl.ports))
	for pl.q.Step() {
		for node, p := range pl.ports {
			if now := [2]int{p.activeIn, p.activeOut}; now != told[node] {
				told[node] = now
				notified = append(notified, fmt.Sprintf("at=%d node %d in=%d out=%d", pl.q.Now(), node, now[0], now[1]))
			}
		}
	}
	return done, notified, segments, messages
}

// TestOneArrivalPerMessageMatchesReference: scheduling only each message's
// last segment arrival changes nothing a run can observe — not the
// completions, not the port counts the CPUs see, not the statistics, not
// the random stream — and fires exactly one event fewer per extra segment.
func TestOneArrivalPerMessageMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		p := FastEthernetCluster(4, seed)
		script := tbScript(seed, p.Nodes, 120)

		ref := newRefCluster(p)
		wantDone, wantTold, segments, messages := playTestbed(tbPlay{
			q: ref.q, ports: ref.ports, send: ref.Send, submit: ref.Submit, stepWork: ref.StepWork,
		}, p.MTU, script)

		c := New(p)
		src := c.DurationSource()
		gotDone, gotTold, _, _ := playTestbed(tbPlay{
			q: c.q, ports: c.ports, send: c.Send, submit: c.Submit,
			stepWork: func(d eventq.Duration) eventq.Duration { return src.StepWork("", d, nil) },
		}, p.MTU, script)

		if messages == 0 || segments == messages {
			t.Fatalf("seed %d: script sent %d messages in %d segments; want multi-segment traffic", seed, messages, segments)
		}
		if fmt.Sprint(gotDone) != fmt.Sprint(wantDone) {
			t.Fatalf("seed %d: completions differ\ngot  %v\nwant %v", seed, gotDone, wantDone)
		}
		if fmt.Sprint(gotTold) != fmt.Sprint(wantTold) {
			t.Fatalf("seed %d: transfer counts told to the CPUs differ\ngot  %v\nwant %v", seed, gotTold, wantTold)
		}
		if c.TotalBytes() != ref.totalBytes || c.TotalTransfers() != ref.totalTransfers {
			t.Fatalf("seed %d: %d bytes in %d transfers, reference %d in %d",
				seed, c.TotalBytes(), c.TotalTransfers(), ref.totalBytes, ref.totalTransfers)
		}
		if c.rnd.Uint64() != ref.rnd.Uint64() {
			t.Fatalf("seed %d: random streams diverged", seed)
		}
		if d := ref.q.Fired() - c.q.Fired(); d != segments-messages {
			t.Fatalf("seed %d: fired %d events, reference %d: saved %d, want segments - messages = %d",
				seed, c.q.Fired(), ref.q.Fired(), d, segments-messages)
		}
	}
}

// --- integration: the testbed as a core.Platform ---

type payload struct{ blob int }

func (p *payload) Wire(s serial.Stream) { s.Skip(p.blob) }

type devNull struct{}

func (devNull) Absorb(dps.Ctx, dps.DataObject) {}
func (devNull) Finish(dps.Ctx)                 {}

func TestRunsDPSApplication(t *testing.T) {
	master := dps.NewCollection("m", 1, 4)
	workers := dps.NewCollection("w", 4, 4)
	g := dps.NewGraph("tb")
	split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
		for i := 0; i < 8; i++ {
			ctx.Post(&payload{blob: 100_000})
		}
	})
	leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
		ctx.Compute("work", 5*eventq.Millisecond, nil)
		ctx.Post(&payload{blob: 10_000})
	})
	merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return devNull{} })
	g.Connect(split, leaf, dps.RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)

	cl := New(FastEthernetCluster(4, 42))
	eng, err := core.New(core.Config{
		Graph:     g,
		Platform:  cl,
		Durations: cl.DurationSource(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Inject(split, 0, &payload{})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Transfers == 0 {
		t.Fatalf("implausible run: %+v", res)
	}
	// 6 of 8 objects leave node 0 (workers 1,2,3 are remote, 2 rounds
	// each): at least 100KB×6 inter-node traffic plus results.
	if cl.TotalBytes() < 600_000 {
		t.Fatalf("testbed moved only %d bytes", cl.TotalBytes())
	}
}

func TestTestbedVsSimulatorDisagreeSlightly(t *testing.T) {
	// The same application on the testbed and on the simulator platform
	// must produce close but not identical times: that gap is the
	// prediction error the paper measures.
	build := func() (*dps.Graph, *dps.Op) {
		master := dps.NewCollection("m", 1, 4)
		workers := dps.NewCollection("w", 4, 4)
		g := dps.NewGraph("cmp")
		split := g.Split("s", master, func(ctx dps.Ctx, in dps.DataObject) {
			for i := 0; i < 16; i++ {
				ctx.Post(&payload{blob: 200_000})
			}
		})
		leaf := g.Leaf("l", workers, func(ctx dps.Ctx, in dps.DataObject) {
			ctx.Compute("work", 20*eventq.Millisecond, nil)
			ctx.Post(&payload{blob: 1000})
		})
		merge := g.Merge("mg", master, func(dps.DataObject) dps.MergeState { return devNull{} })
		g.Connect(split, leaf, dps.RoundRobin)
		g.Connect(leaf, merge, nil)
		g.PairOps(split, merge, nil)
		return g, split
	}

	g1, s1 := build()
	cl := New(FastEthernetCluster(4, 99))
	engTB, err := core.New(core.Config{Graph: g1, Platform: cl, Durations: cl.DurationSource()})
	if err != nil {
		t.Fatal(err)
	}
	engTB.Inject(s1, 0, &payload{})
	resTB, err := engTB.Run()
	if err != nil {
		t.Fatal(err)
	}

	g2, s2 := build()
	engSim, err := core.New(core.Config{
		Graph:    g2,
		Platform: core.NewSimPlatform(4, simNetParams(), simCPUParams()),
	})
	if err != nil {
		t.Fatal(err)
	}
	engSim.Inject(s2, 0, &payload{})
	resSim, err := engSim.Run()
	if err != nil {
		t.Fatal(err)
	}

	ratio := float64(resTB.Elapsed) / float64(resSim.Elapsed)
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("testbed (%v) and simulator (%v) diverge too much: ratio %.2f",
			resTB.Elapsed, resSim.Elapsed, ratio)
	}
	if resTB.Elapsed == resSim.Elapsed {
		t.Fatal("testbed and simulator agree exactly; models are suspiciously identical")
	}
}

func BenchmarkClusterTransferHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New(FastEthernetCluster(8, uint64(i)))
		for j := 0; j < 400; j++ {
			c.Send(j%8, (j+3)%8, 50_000, nil)
		}
		c.Queue().Run(0)
	}
}
