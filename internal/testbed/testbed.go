// Package testbed implements the virtual cluster that stands in for the
// paper's physical testbed: eight Sun UltraSparc II 440 MHz workstations
// connected by switched full-duplex Fast Ethernet (paper §8). Runs on this
// platform produce the "Measurement" series of every figure; the simulator
// platform (internal/core.SimPlatform with calibrated durations) produces
// the "Prediction" series. Prediction error then arises from genuine model
// mismatch, as it does between the paper's simulator and its real cluster.
//
// The testbed is deliberately *more* detailed than the simulator's model:
//
//   - Network: messages are segmented at the MTU; each segment pays a
//     store-and-forward latency and per-segment jitter, and the sharing of
//     port bandwidth is computed per segment rather than fluidly. Small
//     messages pay a fixed per-message protocol overhead.
//   - CPU: per-operation dispatch overhead, multiplicative lognormal noise
//     on every computation, processor sharing, and per-segment send/receive
//     processing costs (receive costlier than send).
//
// None of these effects are visible to the simulator's simple t = l + s/b
// + equal-share model, which is exactly the situation of the paper.
package testbed

import (
	"fmt"

	"dpsim/internal/cpumodel"
	"dpsim/internal/eventq"
	"dpsim/internal/rng"
)

// Params configures the virtual cluster.
type Params struct {
	// Nodes is the number of workstations.
	Nodes int
	// LinkBandwidth is the per-port bandwidth in bytes/second.
	// Fast Ethernet: 12.5e6.
	LinkBandwidth float64
	// WireLatency is the one-way switch+wire latency per segment.
	WireLatency eventq.Duration
	// MsgOverhead is the fixed per-message protocol cost (connection
	// handling, headers) paid before the first byte moves.
	MsgOverhead eventq.Duration
	// MTU is the segment payload size in bytes (Ethernet: 1500).
	MTU int64
	// JitterCV is the coefficient of variation of per-segment service
	// jitter (0 disables).
	JitterCV float64
	// ComputeNoiseCV is the coefficient of variation of per-step compute
	// noise (0 disables).
	ComputeNoiseCV float64
	// NodeSpeedCV is the coefficient of variation of fixed per-node speed
	// differences (real workstations are never perfectly identical; the
	// simulator's averaged calibration cannot see which node is slow).
	NodeSpeedCV float64
	// DispatchOverhead is added to every atomic step (thread wakeup,
	// queue handling) by the duration source.
	DispatchOverhead eventq.Duration
	// RecvSegmentCost and SendSegmentCost are the CPU fractions consumed
	// per active incoming/outgoing transfer (communication processing;
	// receive is costlier).
	RecvSegmentCost float64
	SendSegmentCost float64
	// Seed drives all testbed randomness; equal seeds give equal runs.
	Seed uint64
}

// FastEthernetCluster returns parameters modeling the paper's testbed: the
// given number of single-CPU workstations on switched 100 Mbit/s Ethernet.
func FastEthernetCluster(nodes int, seed uint64) Params {
	return Params{
		Nodes:            nodes,
		LinkBandwidth:    12.5e6,
		WireLatency:      60 * eventq.Microsecond,
		MsgOverhead:      80 * eventq.Microsecond,
		MTU:              1500,
		JitterCV:         0.04,
		ComputeNoiseCV:   0.025,
		NodeSpeedCV:      0.03,
		DispatchOverhead: 35 * eventq.Microsecond,
		RecvSegmentCost:  0.08,
		SendSegmentCost:  0.035,
		Seed:             seed,
	}
}

// Cluster is the high-fidelity platform. It implements core.Platform.
type Cluster struct {
	q    *eventq.Queue
	p    Params
	cpus []*cpumodel.CPU
	rnd  *rng.Source

	ports []*port // per node: in/out segment schedulers

	// jitter and noise are the per-segment and per-step lognormal laws,
	// prepared once from JitterCV and ComputeNoiseCV (a CV of 0 gives the
	// constant 1, which draws nothing and scales exactly).
	jitter, noise rng.LogNormalDist

	// free recycles finished transfers, each with its two events and two
	// bound callbacks: a message allocates nothing in steady state.
	free []*transfer

	totalBytes     int64
	totalTransfers uint64
}

// port tracks the segment queues of one node's full-duplex link.
type port struct {
	outBusyUntil eventq.Time
	inBusyUntil  eventq.Time
	activeOut    int
	activeIn     int
}

// New builds a virtual cluster.
func New(p Params) *Cluster {
	if p.Nodes <= 0 {
		panic("testbed: need at least one node")
	}
	if p.MTU <= 0 {
		p.MTU = 1500
	}
	if p.LinkBandwidth <= 0 {
		panic("testbed: link bandwidth must be positive")
	}
	q := eventq.New()
	c := &Cluster{
		q:      q,
		p:      p,
		rnd:    rng.New(p.Seed),
		jitter: rng.NewLogNormal(p.JitterCV),
		noise:  rng.NewLogNormal(p.ComputeNoiseCV),
	}
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

// Queue implements core.Platform.
func (c *Cluster) Queue() *eventq.Queue { return c.q }

// Nodes implements core.Platform.
func (c *Cluster) Nodes() int { return c.p.Nodes }

// CPU exposes a node's processor model.
func (c *Cluster) CPU(node int) *cpumodel.CPU { return c.cpus[node] }

// TotalBytes returns cumulative payload bytes moved between nodes.
func (c *Cluster) TotalBytes() int64 { return c.totalBytes }

// TotalTransfers returns the number of completed inter-node messages.
func (c *Cluster) TotalTransfers() uint64 { return c.totalTransfers }

// Params returns the cluster parameters.
func (c *Cluster) Params() Params { return c.p }

// Submit implements core.Platform. Compute noise is applied once, by the
// testbed's DurationSource at charge time, so Submit schedules the work
// as-is under processor sharing and communication overhead.
func (c *Cluster) Submit(node int, work eventq.Duration, done func()) {
	if node < 0 || node >= len(c.cpus) {
		panic(fmt.Sprintf("testbed: node %d outside cluster of %d", node, len(c.cpus)))
	}
	c.cpus[node].Submit(work, done)
}

// Send implements core.Platform: a message is segmented at the MTU; each
// segment is serialized onto the source port, crosses the wire, and is
// deserialized from the destination port. Ports serve segments of
// concurrent messages in arrival order (approximate fair queueing), which
// yields per-segment bandwidth sharing.
func (c *Cluster) Send(src, dst int, size int64, done func()) {
	if src < 0 || src >= len(c.cpus) || dst < 0 || dst >= len(c.cpus) {
		panic(fmt.Sprintf("testbed: transfer %d→%d outside cluster of %d", src, dst, len(c.cpus)))
	}
	if size < 0 {
		size = 0
	}
	var t *transfer
	if n := len(c.free); n > 0 {
		t, c.free = c.free[n-1], c.free[:n-1]
	} else {
		t = &transfer{cluster: c}
		t.issue, t.finish = t.issueSegment, t.complete
	}
	t.src, t.dst, t.size, t.issued, t.done = src, dst, size, 0, done
	if src == dst {
		// Local: pay the message overhead only (memory copy is part of
		// the dispatch overhead of the receiving step).
		t.finishEv = c.q.ReuseAfter(t.finishEv, c.p.MsgOverhead, t.finish)
		return
	}
	c.ports[src].activeOut++
	c.ports[dst].activeIn++
	c.notifyCPU(src)
	c.notifyCPU(dst)
	// Per-message protocol overhead, then segment pipeline.
	t.issueEv = c.q.ReuseAfter(t.issueEv, c.p.MsgOverhead, t.issue)
}

// notifyCPU mirrors port activity into the CPU communication overhead.
func (c *Cluster) notifyCPU(node int) {
	p := c.ports[node]
	c.cpus[node].SetTransfers(p.activeIn, p.activeOut)
}

// transfer is one message in flight. It owns its two events and its two
// callbacks, bound once when the transfer is first allocated: at most one
// segment issue is pending at a time (the next is scheduled by the one
// that just fired), and the message completes once, when its last
// segment has been deserialized.
type transfer struct {
	cluster  *Cluster
	src, dst int
	size     int64
	issued   int64 // payload bytes whose segments have been scheduled
	done     func()

	issue, finish     func() // issueSegment and complete, bound once
	issueEv, finishEv *eventq.Event
}

// issueSegment serializes the next MTU-sized segment onto the source port.
// The following segment is issued as soon as the port is free again, so
// the segments of one message pipeline across serialization, wire and
// deserialization, while concurrent messages on the same port interleave
// segment by segment (approximate fair queueing).
//
// Only the last segment schedules an arrival: nothing reads a message
// before all of it has been deserialized, and the last segment's inDone is
// the latest of the message's (the destination port's busy horizon only
// grows, and every segment takes a positive time on it).
func (t *transfer) issueSegment() {
	c := t.cluster
	seg := t.size - t.issued
	if seg > c.p.MTU {
		seg = c.p.MTU
	}
	t.issued += seg
	wire := seg
	// Zero-byte messages still cross the wire once (header-only frame).
	if wire < 64 {
		wire = 64
	}
	serTime := eventq.DurationOf(float64(wire) / c.p.LinkBandwidth)
	serTime = eventq.Duration(float64(serTime) * c.jitter.Draw(c.rnd))
	// Serialize on the source port, cross the wire, deserialize on the
	// destination port; each port is a serial resource shared in FIFO
	// order by all concurrent transfers of that node.
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
		// Next segment leaves once the uplink is free.
		t.issueEv = c.q.ReuseAtTier(t.issueEv, outDone, 0, t.issue)
		return
	}
	t.finishEv = c.q.ReuseAtTier(t.finishEv, inDone, 0, t.finish)
}

// complete delivers the message. The transfer goes back to the free list
// before done runs, since done may Send again.
func (t *transfer) complete() {
	c := t.cluster
	if t.src != t.dst {
		c.ports[t.src].activeOut--
		c.ports[t.dst].activeIn--
		c.notifyCPU(t.src)
		c.notifyCPU(t.dst)
		c.totalTransfers++
		c.totalBytes += t.size
	}
	done := t.done
	t.done = nil
	c.free = append(c.free, t)
	if done != nil {
		done()
	}
}

func maxTime(a, b eventq.Time) eventq.Time {
	if a > b {
		return a
	}
	return b
}

// DurationSource returns the testbed's duration source (a
// core.DurationSource): the analytic estimate plus dispatch overhead,
// scaled by lognormal noise; kernels do not run. This is what the
// application's computations "really" cost on the virtual cluster; the
// simulator only ever sees averaged calibration samples.
func (c *Cluster) DurationSource() interface {
	StepWork(key string, analytic eventq.Duration, kernel func()) eventq.Duration
} {
	return &noisySource{c: c}
}

type noisySource struct{ c *Cluster }

func (s *noisySource) StepWork(_ string, analytic eventq.Duration, _ func()) eventq.Duration {
	d := analytic + s.c.p.DispatchOverhead
	return eventq.Duration(float64(d) * s.c.noise.Draw(s.c.rnd))
}
