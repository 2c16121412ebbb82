package parallel

import (
	"fmt"
	"runtime/debug"
	"time"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
)

// pendingPost is a flow-control-deferred post: the envelope is fully
// routed and ships as soon as a credit arrives. Unlike the simulated
// engine (which suspends the posting operation, as real DPS does), the
// real runtime lets the posting invocation continue — this keeps execution
// threads deadlock-free regardless of operation placement, at the price of
// slightly different timing semantics (ARCHITECTURE.md, "Flow control:
// simulated vs real runtime").
type pendingPost struct {
	it  item
	dst int
}

// run is the execution-thread goroutine: it drains the queue, processing
// one item at a time (DPS threads are sequential execution contexts),
// until the runtime closes.
func (th *workerThread) run() {
	rt := th.node.rt
	defer rt.workers.Done()
	for {
		select {
		case it := <-th.queue:
			th.process(it)
			rt.done()
		case <-rt.closed:
			return
		}
	}
}

// enqueue hands the item, and its unit of in-flight work, to the thread.
func (th *workerThread) enqueue(it item) {
	select {
	case th.queue <- it:
	case <-th.node.rt.closed:
		th.node.rt.done()
	}
}

func (th *workerThread) process(it item) {
	rt := th.node.rt
	defer func() {
		if r := recover(); r != nil {
			rt.fail(fmt.Errorf("parallel: panic on %s[%d] in %s: %v\n%s",
				th.coll.Name(), th.idx, it.op, r, debug.Stack()))
		}
	}()
	switch it.kind {
	case kindClosure:
		si := th.sink(it.instID)
		si.total = it.total
		th.checkComplete(it.pair, it.instID, si)
	case kindData:
		rt.invocations.Add(1)
		op := it.op
		switch op.Kind() {
		case dps.KindSplit:
			ctx := &pctx{th: th, op: op, act: newActivation(it.frames), inFrames: it.frames, seq: it.seq}
			op.CallSplit(ctx, it.obj)
			th.closeActivation(ctx.act)
		case dps.KindLeaf:
			ctx := &pctx{th: th, op: op, inFrames: it.frames, seq: it.seq}
			op.CallLeaf(ctx, it.obj)
			if ctx.posts != 1 {
				rt.fail(fmt.Errorf("parallel: leaf %s posted %d objects, want exactly 1", op, ctx.posts))
			}
		case dps.KindMerge, dps.KindStream:
			if len(it.frames) == 0 {
				rt.fail(fmt.Errorf("parallel: object at %s carries no instance frame", op))
				return
			}
			top := it.frames[len(it.frames)-1]
			pair := rt.pair(top.pairID)
			if pair == nil || pair.Sink() != op {
				rt.fail(fmt.Errorf("parallel: object at %s carries mismatched frame", op))
				return
			}
			si := th.sink(top.instID)
			if si.state == nil {
				si.state = op.NewState(it.obj)
			}
			si.parent = it.frames[:len(it.frames)-1]
			if op.Kind() == dps.KindStream && si.act == nil {
				si.act = newActivation(si.parent)
			}
			ctx := &pctx{th: th, op: op, inst: si, inFrames: it.frames, seq: it.seq}
			si.state.Absorb(ctx, it.obj)
			si.absorbed++
			if pair.Window() > 0 {
				rt.sendAck(th.node.id, top)
			}
			th.checkComplete(pair, top.instID, si)
		}
	}
}

// sink returns (creating if needed) the sink-side instance state.
func (th *workerThread) sink(instID uint64) *sinkInstance {
	si := th.sinks[instID]
	if si == nil {
		si = &sinkInstance{total: -1}
		th.sinks[instID] = si
	}
	return si
}

// checkComplete runs Finish once the closure arrived and every posted
// object was absorbed.
func (th *workerThread) checkComplete(pair *dps.Pair, instID uint64, si *sinkInstance) {
	if si.finished || si.total < 0 || si.absorbed != si.total {
		return
	}
	si.finished = true
	th.node.rt.invocations.Add(1)
	op := pair.Sink()
	if si.state == nil {
		si.state = op.NewState(nil)
	}
	if op.Kind() == dps.KindStream && si.act == nil {
		si.act = newActivation(si.parent)
	}
	ctx := &pctx{th: th, op: op, inst: si, isFinish: true}
	si.state.Finish(ctx)
	if op.Kind() == dps.KindStream {
		th.closeActivation(si.act)
	}
	delete(th.sinks, instID)
}

// closeActivation emits the closure messages of every opened instance.
func (th *workerThread) closeActivation(act *activation) {
	if act == nil {
		return
	}
	for _, si := range act.order {
		si.mu.Lock()
		total := si.posted
		si.mu.Unlock()
		th.node.rt.sendClosure(th.node.id, si, total)
	}
}

// --- Ctx implementation ---

// pctx is the real runtime's operation context.
type pctx struct {
	th       *workerThread
	op       *dps.Op
	act      *activation   // split activations
	inst     *sinkInstance // absorb/finish invocations
	inFrames []wireFrame
	seq      int
	posts    int
	isFinish bool
}

func (c *pctx) activation() *activation {
	if c.act != nil {
		return c.act
	}
	if c.inst != nil {
		return c.inst.act
	}
	return nil
}

func (c *pctx) Post(obj dps.DataObject) { c.PostTo(0, obj) }

func (c *pctx) PostTo(edgeIdx int, obj dps.DataObject) {
	rt := c.th.node.rt
	if obj == nil {
		rt.fail(fmt.Errorf("parallel: %s posted nil", c.op))
		return
	}
	if edgeIdx < 0 || edgeIdx >= c.op.Outs() {
		rt.fail(fmt.Errorf("parallel: %s posted on edge %d of %d", c.op, edgeIdx, c.op.Outs()))
		return
	}
	edge := c.op.Out(edgeIdx)
	c.posts++
	srcNode := c.th.node.id
	if pair := edge.Pair(); pair != nil {
		act := c.activation()
		if act == nil {
			rt.fail(fmt.Errorf("parallel: %s cannot open pair instances here", c.op))
			return
		}
		src := act.insts[pair]
		if src == nil {
			width := pair.Sink().Collection().Width()
			st := pair.RouteInstance(obj, width)
			if st < 0 || st >= width {
				rt.fail(fmt.Errorf("parallel: %s instance routed to %d of %d", pair, st, width))
				return
			}
			src = c.th.node.open(pair, st)
			act.insts[pair] = src
			act.order = append(act.order, src)
		}
		frames := append(append([]wireFrame(nil), act.parent...), wireFrame{
			pairID:     uint32(pair.ID()),
			instID:     src.id,
			srcNode:    uint32(srcNode),
			sinkThread: uint32(src.sinkThread),
		})
		src.mu.Lock()
		seq := src.posted
		src.posted++
		dst := src.sinkThread
		if edge.To() != pair.Sink() {
			var ok bool
			if dst, ok = c.route(edge, obj, seq); !ok {
				src.mu.Unlock()
				return
			}
		}
		it := item{kind: kindData, op: edge.To(), obj: obj, frames: frames, seq: seq}
		if w := pair.Window(); w > 0 && src.inflight >= w {
			// Defer the fully routed post until a credit arrives.
			src.pending = append(src.pending, pendingPost{it: it, dst: dst})
			src.mu.Unlock()
			return
		}
		src.inflight++
		src.mu.Unlock()
		rt.sendData(srcNode, it, dst)
		return
	}
	// Plain edge: leaf pass-through or merge-finish output.
	frames := c.inFrames
	seq := c.seq
	if c.inst != nil {
		frames = c.inst.parent
		seq = 0
	}
	var dst int
	if edge.To().IsSink() {
		if len(frames) == 0 {
			rt.fail(fmt.Errorf("parallel: %s forwards to %s without an instance frame", c.op, edge.To()))
			return
		}
		top := frames[len(frames)-1]
		if p := rt.pair(top.pairID); p == nil || p.Sink() != edge.To() {
			rt.fail(fmt.Errorf("parallel: %s forwards to %s with mismatched frame", c.op, edge.To()))
			return
		}
		dst = int(top.sinkThread)
	} else {
		var ok bool
		if dst, ok = c.route(edge, obj, seq); !ok {
			return
		}
	}
	rt.sendData(srcNode, item{kind: kindData, op: edge.To(), obj: obj, frames: frames, seq: seq}, dst)
}

// route evaluates edge's routing function and, as the simulated engine
// does, fails the run when the destination lies outside the active width
// (a removed thread still addressed).
func (c *pctx) route(edge *dps.Edge, obj dps.DataObject, seq int) (int, bool) {
	width := edge.To().Collection().Width()
	dst := edge.Route()(dps.Routing{Obj: obj, Width: width, SrcThread: c.th.idx, Seq: seq})
	if dst < 0 || dst >= width {
		c.th.node.rt.fail(fmt.Errorf("parallel: edge %s→%s routed object to thread %d outside active width %d",
			edge.From(), edge.To(), dst, width))
		return 0, false
	}
	return dst, true
}

func (c *pctx) Compute(key string, work eventq.Duration, f func()) {
	if f != nil {
		f()
	}
}

func (c *pctx) Thread() int { return c.th.idx }
func (c *pctx) Width() int  { return c.op.Collection().Width() }
func (c *pctx) Node() int   { return c.th.node.id }
func (c *pctx) Now() eventq.Time {
	return eventq.Time(time.Since(c.th.node.rt.started).Nanoseconds())
}
func (c *pctx) NoAlloc() bool    { return false }
func (c *pctx) Store() dps.Store { return c.th.store }

func (c *pctx) Phase(name string) {
	rt := c.th.node.rt
	rt.phaseMu.Lock()
	rt.phases = append(rt.phases, Phase{Elapsed: time.Since(rt.started), Name: name})
	rt.phaseMu.Unlock()
}
