package dps

import "fmt"

// CheckInject checks an injection into thread t of o: an active thread of
// a split or leaf, since an injected object carries no instance frame.
func (o *Op) CheckInject(t int) error {
	if o.IsSink() {
		return fmt.Errorf("cannot inject into %s", o)
	}
	if w := o.coll.Width(); t < 0 || t >= w {
		return fmt.Errorf("cannot inject into thread %d of %s, outside active width %d", t, o, w)
	}
	return nil
}

// CheckPost checks a post of obj on o's edge-th outgoing edge by an
// invocation that already posted prior objects, and returns the edge.
func (o *Op) CheckPost(edge int, obj DataObject, prior int) (*Edge, error) {
	switch {
	case obj == nil:
		return nil, fmt.Errorf("%s posted a nil data object", o)
	case edge < 0 || edge >= len(o.outs):
		return nil, fmt.Errorf("%s posted on edge %d of %d", o, edge, len(o.outs))
	case o.kind == KindLeaf && prior > 0:
		return nil, o.CheckEnd(prior + 1)
	}
	return o.outs[edge], nil
}

// CheckEnd checks an invocation of o that ended after posting posts
// objects: a leaf posts exactly one, so its sink can count arrivals.
func (o *Op) CheckEnd(posts int) error {
	if o.kind == KindLeaf && posts != 1 {
		return fmt.Errorf("leaf %s posted %d objects; DPS leaves must post exactly one", o, posts)
	}
	return nil
}

// Frame is the innermost pair instance a data object belongs to: its pair
// (nil for none) and the sink thread that aggregates it.
type Frame struct {
	Pair       *Pair
	SinkThread int
}

// Dest returns the thread receiving obj, posted on e by thread srcThread
// as the seq-th object of its instance, with frame top: a sink's thread
// aggregating top, which must be of its pair, or else the active thread
// e's routing function picks.
func (e *Edge) Dest(obj DataObject, top Frame, srcThread, seq int) (int, error) {
	if e.to.IsSink() {
		if top.Pair == nil || top.Pair.sink != e.to {
			return 0, fmt.Errorf("%s posted to %s but the object's instance frame belongs elsewhere", e.from, e.to)
		}
		return top.SinkThread, nil
	}
	width := e.to.coll.Width()
	dst := e.route(Routing{Obj: obj, Width: width, SrcThread: srcThread, Seq: seq})
	if dst < 0 || dst >= width {
		return 0, fmt.Errorf("edge %s→%s routed object to thread %d outside active width %d (removed thread still addressed?)",
			e.from, e.to, dst, width)
	}
	return dst, nil
}

// Instance is the account of one pair instance, embedded in an executor's
// instance record. The source numbers posts and spends flow-control
// credits; the sink counts absorbed objects against the closure's total.
type Instance struct {
	Frame
	posted, inflight, absorbed, total int
	closed, finished                  bool
}

// OpenInstance opens an instance of p for its first posted object on the
// active sink thread p's instance routing picks.
func (p *Pair) OpenInstance(first DataObject) (Instance, error) {
	width := p.sink.coll.Width()
	st := p.routeInstance(first, width)
	if st < 0 || st >= width {
		return Instance{}, fmt.Errorf("%s routed instance to thread %d outside width %d", p, st, width)
	}
	return Instance{Frame: Frame{Pair: p, SinkThread: st}}, nil
}

// Post numbers the next object posted into the instance (Routing.Seq).
func (c *Instance) Post() (seq int) {
	c.posted++
	return c.posted - 1
}

// Posted returns the number of objects posted, which the closure carries.
func (c *Instance) Posted() int { return c.posted }

// Acquire takes a flow-control credit for a post; false means the window
// is full and the post waits for a Release.
func (c *Instance) Acquire() bool {
	if w := c.Pair.window; w > 0 && c.inflight >= w {
		return false
	}
	c.inflight++
	return true
}

// Release returns the credit of an acknowledged object.
func (c *Instance) Release() { c.inflight-- }

// InFlight returns the number of credits taken and not released.
func (c *Instance) InFlight() int { return c.inflight }

// Absorb counts an object absorbed by the sink.
func (c *Instance) Absorb() error {
	c.absorbed++
	return c.overflow()
}

// Close records the closure and the posted total it carries.
func (c *Instance) Close(total int) error {
	c.closed, c.total = true, total
	return c.overflow()
}

// overflow rejects absorbing more objects than were posted, as an object
// delivered to a finished instance does.
func (c *Instance) overflow() error {
	if c.closed && c.absorbed > c.total {
		return fmt.Errorf("%s: instance absorbed %d objects, more than the %d posted", c.Pair, c.absorbed, c.total)
	}
	return nil
}

// Complete reports, once, that the instance is closed and absorbed every
// posted object, so its sink's Finish runs.
func (c *Instance) Complete() bool {
	if c.finished || !c.closed || c.absorbed != c.total {
		return false
	}
	c.finished = true
	return true
}

// CheckQuiescent checks a run with no work left, where unfinished(p)
// counts p's instances opened and not complete.
func (g *Graph) CheckQuiescent(unfinished func(*Pair) int) error {
	for _, p := range g.pairs {
		if n := unfinished(p); n != 0 {
			return fmt.Errorf("%s: %d instance(s) opened but never finished", p, n)
		}
	}
	return nil
}
