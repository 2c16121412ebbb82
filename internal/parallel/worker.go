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
		si := th.sink(it.pair, it.instID)
		if !rt.broken(si.Close(it.total)) {
			th.checkComplete(si)
		}
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
			rt.broken(op.CheckEnd(ctx.posts))
		case dps.KindMerge, dps.KindStream:
			// Frames decoded off the wire are checked here; a local
			// object's frame was checked when it was posted.
			top, fr := rt.top(it.frames)
			pair := fr.Pair
			if pair == nil || pair.Sink() != op {
				rt.fail(fmt.Errorf("parallel: object at %s carries no matching instance frame", op))
				return
			}
			// The thread absorbs one object at a time, so counting it
			// before its handler runs is counting it after.
			si := th.sink(pair, top.instID)
			if rt.broken(si.Absorb()) {
				return
			}
			if si.state == nil {
				si.state = op.NewState(it.obj)
			}
			si.parent = it.frames[:len(it.frames)-1]
			if op.Kind() == dps.KindStream && si.act == nil {
				si.act = newActivation(si.parent)
			}
			si.state.Absorb(&pctx{th: th, op: op, act: si.act, inst: si, inFrames: it.frames, seq: it.seq}, it.obj)
			if pair.Window() > 0 {
				rt.sendAck(th.node.id, top)
			}
			th.checkComplete(si)
		}
	}
}

// sink returns (creating if needed) the sink-side record of an instance.
func (th *workerThread) sink(pair *dps.Pair, instID uint64) *sinkInstance {
	si := th.sinks[instID]
	if si == nil {
		si = &sinkInstance{Instance: dps.Instance{Frame: dps.Frame{Pair: pair, SinkThread: th.idx}}}
		th.sinks[instID] = si
	}
	return si
}

// checkComplete runs Finish once the closure arrived and every posted
// object was absorbed, then releases the instance's merge state.
func (th *workerThread) checkComplete(si *sinkInstance) {
	if !si.Complete() {
		return
	}
	rt := th.node.rt
	rt.unfinished[si.Pair.ID()].Add(-1)
	rt.invocations.Add(1)
	op := si.Pair.Sink()
	si.state.Finish(&pctx{th: th, op: op, act: si.act, inst: si})
	if op.Kind() == dps.KindStream {
		th.closeActivation(si.act)
	}
	si.state, si.act, si.parent = nil, nil, nil
}

// closeActivation emits the closure messages of every opened instance.
func (th *workerThread) closeActivation(act *activation) {
	for _, si := range act.order {
		si.mu.Lock()
		si.closed = true
		th.node.retire(si)
		si.mu.Unlock()
		th.node.rt.sendClosure(th.node.id, si)
	}
}

// --- Ctx implementation ---

// pctx is the real runtime's operation context.
type pctx struct {
	th       *workerThread
	op       *dps.Op
	act      *activation   // output activation: the split's, or the stream instance's
	inst     *sinkInstance // absorb/finish invocations
	inFrames []wireFrame
	seq      int
	posts    int
}

func (c *pctx) Post(obj dps.DataObject) { c.PostTo(0, obj) }

func (c *pctx) PostTo(edgeIdx int, obj dps.DataObject) {
	rt := c.th.node.rt
	edge, err := c.op.CheckPost(edgeIdx, obj, c.posts)
	if rt.broken(err) {
		return
	}
	c.posts++
	srcNode := c.th.node.id
	// A leaf forwards its input's frames; a merge or stream posts on a
	// plain edge into its input instance's parent.
	frames, seq := c.inFrames, c.seq
	if c.inst != nil {
		frames, seq = c.inst.parent, 0
	}
	_, top := rt.top(frames)
	var src *srcInstance
	if pair := edge.Pair(); pair != nil {
		act := c.act
		if src = act.insts[pair]; src == nil {
			if src, err = c.th.node.open(pair, obj); rt.broken(err) {
				return
			}
			act.insts[pair] = src
			act.order = append(act.order, src)
		}
		frames = append(append([]wireFrame(nil), act.parent...), wireFrame{
			pairID:     uint32(pair.ID()),
			instID:     src.id,
			srcNode:    uint32(srcNode),
			sinkThread: uint32(src.SinkThread),
		})
		seq = src.Post()
		top = src.Frame
	}
	dst, err := edge.Dest(obj, top, c.th.idx, seq)
	if rt.broken(err) {
		return
	}
	it := item{kind: kindData, op: edge.To(), obj: obj, frames: frames, seq: seq}
	if src != nil {
		src.mu.Lock()
		ok := src.Acquire()
		if !ok {
			// Defer the fully routed post until a credit arrives.
			src.pending = append(src.pending, pendingPost{it: it, dst: dst})
		}
		src.mu.Unlock()
		if !ok {
			return
		}
	}
	rt.sendData(srcNode, it, dst)
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
