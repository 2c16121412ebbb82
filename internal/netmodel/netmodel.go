// Package netmodel implements the simulator's network model (paper §4).
//
// The communication network has a star topology: every node owns a
// full-duplex link to a central full-crossbar switch that is never a
// bottleneck. The optimistic transfer time of a data object of size s is
//
//	t = l + s/b
//
// where l is the network latency and b the link bandwidth. Under
// contention, all concurrent outgoing (respectively incoming) transfers of
// a node receive an equal share of the port bandwidth, so an individual
// transfer progresses at
//
//	rate = min( b / activeOut(src), b / activeIn(dst) )
//
// re-evaluated every time a transfer starts or completes (a fluid model).
// Local deliveries (src == dst) do not traverse the network: they complete
// after the latency only and consume no port bandwidth.
//
// The model also publishes per-node active-transfer counts through a
// Listener so the CPU model can account for the processing power consumed
// by communications (paper: "the simulator handles all communications, it
// knows at every time point how many concurrent transfers are carried out
// by each processing node").
package netmodel

import (
	"cmp"
	"fmt"
	"slices"

	"dpsim/internal/eventq"
)

// Params configures the network model.
type Params struct {
	// Latency is the per-message startup latency l.
	Latency eventq.Duration
	// Bandwidth is the per-port bandwidth b in bytes/second (full duplex:
	// the in and out ports of a node each have this capacity).
	Bandwidth float64
	// Contention enables the equal-share model. When false every transfer
	// gets the full port bandwidth (the "no contention" assumption the
	// paper criticizes in MPI-SIM/COMPASS; kept as an ablation knob).
	Contention bool
	// MaxMin replaces the paper's simple equal-share rule with
	// work-conserving max-min fairness (progressive filling): bandwidth
	// unused by transfers bottlenecked elsewhere is redistributed. Kept
	// as a sensitivity knob to quantify how much the sharing discipline
	// itself affects predictions.
	MaxMin bool
}

// FastEthernet returns the parameters of the paper's testbed interconnect:
// 100 Mbit/s full duplex, ~100 µs small-message latency.
func FastEthernet() Params {
	return Params{
		Latency:    100 * eventq.Microsecond,
		Bandwidth:  12.5e6, // 100 Mbit/s in bytes/s
		Contention: true,
	}
}

// Listener observes changes of per-node active transfer counts.
type Listener interface {
	// PortsChanged is invoked whenever the number of active incoming or
	// outgoing transfers of node changes.
	PortsChanged(node, activeIn, activeOut int)
}

// Transfer is one in-flight data-object transfer.
type Transfer struct {
	ID       uint64
	Src, Dst int
	Size     int64 // bytes
	Payload  any   // opaque reference carried to the completion callback

	src, dst  *port
	start     eventq.Time
	remaining float64 // bytes
	rate      float64 // bytes/s; 0 while in the latency phase
	last      eventq.Time
	// next is the transfer's one pending event — the end of the latency
	// phase, then the completion every reflow moves — and advance its one
	// callback, so a transfer allocates neither after Send.
	next    *eventq.Event
	advance func()
	done    func(*Transfer)
	flowing bool
}

// Start reports when the transfer was submitted.
func (t *Transfer) Start() eventq.Time { return t.start }

// Network is the fluid network model. It is not safe for concurrent use;
// the single-threaded event engine is the only caller.
type Network struct {
	q        *eventq.Queue
	p        Params
	listener Listener

	nextID   uint64
	ports    map[int]*port
	inFlight int
	// flowing holds the transfers past their latency phase in ascending ID
	// order: the order reflow settles and reschedules them in, which fixes
	// the same-instant FIFO order of their completion events.
	flowing []*Transfer

	// Stats
	totalTransfers uint64
	totalBytes     int64
}

// port is one node's link: the transfers currently flowing through it and
// the bytes it has carried. Transfers hold their two ports, so the per-flow
// rate computation looks nothing up.
type port struct {
	in, out           int
	bytesIn, bytesOut int64
}

func (n *Network) port(node int) *port {
	p := n.ports[node]
	if p == nil {
		p = &port{}
		n.ports[node] = p
	}
	return p
}

// New returns a network model driven by the given event queue.
func New(q *eventq.Queue, p Params) *Network {
	if p.Bandwidth <= 0 {
		panic("netmodel: bandwidth must be positive")
	}
	return &Network{q: q, p: p, ports: make(map[int]*port)}
}

// SetListener registers the observer of port activity (typically the CPU
// model). Passing nil removes it.
func (n *Network) SetListener(l Listener) { n.listener = l }

// Params returns the model parameters.
func (n *Network) Params() Params { return n.p }

// ActiveIn returns the number of incoming transfers currently flowing into
// node.
func (n *Network) ActiveIn(node int) int { return n.port(node).in }

// ActiveOut returns the number of outgoing transfers currently flowing out
// of node.
func (n *Network) ActiveOut(node int) int { return n.port(node).out }

// InFlight returns the number of transfers in latency or flowing phase.
func (n *Network) InFlight() int { return n.inFlight }

// TotalBytes returns the cumulative payload bytes of completed transfers.
func (n *Network) TotalBytes() int64 { return n.totalBytes }

// TotalTransfers returns the cumulative number of completed transfers.
func (n *Network) TotalTransfers() uint64 { return n.totalTransfers }

// BytesIn returns cumulative bytes received by node.
func (n *Network) BytesIn(node int) int64 { return n.port(node).bytesIn }

// BytesOut returns cumulative bytes sent by node.
func (n *Network) BytesOut(node int) int64 { return n.port(node).bytesOut }

// OptimisticTime returns l + s/b: the no-contention transfer duration.
func (n *Network) OptimisticTime(size int64) eventq.Duration {
	return n.p.Latency + eventq.DurationOf(float64(size)/n.p.Bandwidth)
}

// Send submits a transfer of size bytes from src to dst and returns it.
// done runs (on the event queue) when the last byte arrives. A zero or
// negative size is treated as a pure-latency control message.
func (n *Network) Send(src, dst int, size int64, payload any, done func(*Transfer)) *Transfer {
	if size < 0 {
		size = 0
	}
	t := &Transfer{
		ID:        n.nextID,
		Src:       src,
		Dst:       dst,
		Size:      size,
		Payload:   payload,
		src:       n.port(src),
		dst:       n.port(dst),
		start:     n.q.Now(),
		remaining: float64(size),
		done:      done,
	}
	n.nextID++
	n.inFlight++
	t.advance = func() {
		if t.flowing {
			t.remaining = 0
			n.complete(t)
		} else {
			n.beginFlow(t)
		}
	}
	// Latency phase: no port bandwidth is consumed until l has elapsed
	// (models connection/protocol startup).
	t.next = n.q.After(n.p.Latency, t.advance)
	return t
}

func (n *Network) beginFlow(t *Transfer) {
	if t.Src == t.Dst || t.remaining <= 0 {
		// Local or empty: completes immediately after latency.
		n.complete(t)
		return
	}
	t.flowing = true
	t.last = n.q.Now()
	// IDs are handed out in Send order and every transfer waits the same
	// latency, so this is an append; the shift keeps the order for any
	// other caller.
	i := len(n.flowing)
	n.flowing = append(n.flowing, t)
	for ; i > 0 && n.flowing[i-1].ID > t.ID; i-- {
		n.flowing[i] = n.flowing[i-1]
	}
	n.flowing[i] = t
	t.src.out++
	t.dst.in++
	n.notify(t.Src, t.src)
	n.notify(t.Dst, t.dst)
	n.reflow()
}

// complete finalizes a transfer and invokes its callback.
func (n *Network) complete(t *Transfer) {
	n.inFlight--
	n.totalTransfers++
	n.totalBytes += t.Size
	t.src.bytesOut += t.Size
	t.dst.bytesIn += t.Size
	wasFlowing := t.flowing
	if wasFlowing {
		t.flowing = false
		i, _ := slices.BinarySearchFunc(n.flowing, t.ID, func(f *Transfer, id uint64) int { return cmp.Compare(f.ID, id) })
		n.flowing = slices.Delete(n.flowing, i, i+1)
		t.src.out--
		t.dst.in--
		n.notify(t.Src, t.src)
		n.notify(t.Dst, t.dst)
	}
	done := t.done
	t.done = nil
	if wasFlowing {
		n.reflow()
	}
	if done != nil {
		done(t)
	}
}

func (n *Network) notify(node int, p *port) {
	if n.listener != nil {
		n.listener.PortsChanged(node, p.in, p.out)
	}
}

// rateOf computes the current fluid rate of a flowing transfer.
func (n *Network) rateOf(t *Transfer) float64 {
	if !n.p.Contention {
		return n.p.Bandwidth
	}
	shareOut := n.p.Bandwidth / float64(max(t.src.out, 1))
	shareIn := n.p.Bandwidth / float64(max(t.dst.in, 1))
	if shareOut < shareIn {
		return shareOut
	}
	return shareIn
}

// reflow settles progress of all flowing transfers at the current instant,
// recomputes their rates and moves their completion events. Transfers are
// visited in ID order, and RescheduleAfter gives each a fresh sequence
// number exactly as Cancel + After would, so completions that land on the
// same instant fire in ID order.
func (n *Network) reflow() {
	now := n.q.Now()
	var maxmin []float64
	if n.p.MaxMin && n.p.Contention {
		maxmin = n.maxMinRates()
	}
	for i, t := range n.flowing {
		// Settle bytes moved since the last rate change.
		dt := (now - t.last).Seconds()
		if dt > 0 && t.rate > 0 {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
		}
		t.last = now
		if maxmin != nil {
			t.rate = maxmin[i]
		} else {
			t.rate = n.rateOf(t)
		}
		t.next = n.q.RescheduleAfter(t.next, eventq.DurationOf(t.remaining/t.rate), t.advance)
	}
}

// maxMinRates computes work-conserving max-min fair rates by progressive
// filling: repeatedly saturate the most constrained port and freeze its
// flows at the fair share, redistributing the slack. The result is
// indexed like n.flowing.
func (n *Network) maxMinRates() []float64 {
	type port struct {
		capacity float64
		flows    []int // indices into n.flowing, ascending
	}
	ports := make(map[[2]int]*port) // [dir(0=out,1=in), node]
	var keys [][2]int
	for i, t := range n.flowing {
		for _, key := range [2][2]int{{0, t.Src}, {1, t.Dst}} {
			p := ports[key]
			if p == nil {
				p = &port{capacity: n.p.Bandwidth}
				ports[key] = p
				keys = append(keys, key)
			}
			p.flows = append(p.flows, i)
		}
	}
	// Ports are scanned in sorted key order so ties between equal shares
	// always resolve the same way.
	slices.SortFunc(keys, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	rates := make([]float64, len(n.flowing))
	frozen := make([]bool, len(n.flowing))
	for nFrozen := 0; nFrozen < len(n.flowing); {
		// Find the port with the smallest fair share among its unfrozen
		// flows.
		var bestKey [2]int
		bestShare := -1.0
		for _, k := range keys {
			p := ports[k]
			unfrozen := 0
			for _, i := range p.flows {
				if !frozen[i] {
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
		// Freeze that port's unfrozen flows at the share and charge the
		// other port they use.
		for _, i := range ports[bestKey].flows {
			if frozen[i] {
				continue
			}
			frozen[i] = true
			nFrozen++
			rates[i] = bestShare
			t := n.flowing[i]
			for _, k := range [2][2]int{{0, t.Src}, {1, t.Dst}} {
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

// String summarizes current activity, for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("netmodel{inflight=%d, done=%d, bytes=%d}", n.inFlight, n.totalTransfers, n.totalBytes)
}
