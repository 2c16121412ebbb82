package core

import (
	"fmt"
	"iter"
	"runtime/debug"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
)

// invKind classifies operation invocations.
type invKind int

const (
	iSplit invKind = iota
	iLeaf
	iAbsorb
	iFinish
)

func (k invKind) String() string {
	switch k {
	case iSplit:
		return "split"
	case iLeaf:
		return "leaf"
	case iAbsorb:
		return "absorb"
	case iFinish:
		return "finish"
	default:
		return "?"
	}
}

// yieldMsg is what an invocation hands back to the engine at the end of
// every atomic step.
type yieldMsg struct {
	done bool            // invocation finished (no further resume expected)
	work eventq.Duration // duration of the step that just ended
	post *envelope       // non-nil when the step ended with a post
}

// abortSignal unwinds a handler whose coroutine shutdown stopped.
var abortSignal = new(int)

// coro is one execution thread of the engine: an iter.Pull coroutine that
// runs the invocations bound to it one after another. The engine (the
// simulator thread of Fig. 3) resumes exactly one coroutine at a time and
// regains control at every atomic-step end. A finished invocation returns
// its coroutine to Engine.free, so an engine creates only as many
// coroutines as invocations are ever live at once.
type coro struct {
	inv   *invocation // bound invocation; nil while on the free list
	yield func(yieldMsg) bool
	next  func() (yieldMsg, bool)
	stop  func()

	// A coroutine has at most one atomic step in flight. Its yielded
	// message and the node it was submitted on wait here for stepDone,
	// the completion callback bound once per coroutine, so a step
	// allocates no closure.
	msg      yieldMsg
	node     int
	stepDone func()
}

// loop is the coroutine body. The done step of one invocation stays
// parked in yield until the coroutine is bound again or stopped.
func (c *coro) loop(yield func(yieldMsg) bool) {
	c.yield = yield
	for c.inv.run() {
		if !yield(yieldMsg{done: true, work: c.inv.stepWork()}) {
			return
		}
	}
}

// invocation is one operation activation: the analogue of a DPS execution
// thread running one operation (paper §3).
type invocation struct {
	eng  *Engine
	co   *coro
	th   *thread
	op   *dps.Op
	kind invKind

	env  *envelope   // input (nil for finish)
	inst *instance   // sink instance for absorb/finish
	act  *activation // output activation: the split's, or the stream instance's

	charged eventq.Duration // Compute charges in the current step
	posts   int             // posts in this invocation (leaf 1:1 check)

	ctx opCtx // the dps.Ctx handed to the handler
}

func (inv *invocation) describe() string {
	return fmt.Sprintf("%s invocation of %s on %s[%d]", inv.kind, inv.op, inv.th.coll.Name(), inv.th.idx)
}

// stepWork computes and resets the duration of the step ending now.
func (inv *invocation) stepWork() eventq.Duration {
	w := inv.charged + inv.eng.cfg.PerStepOverhead
	inv.charged = 0
	return w
}

// handoff ends the current atomic step: it yields msg to the engine and
// returns when resumed.
func (inv *invocation) handoff(msg yieldMsg) {
	if !inv.co.yield(msg) {
		panic(abortSignal)
	}
}

// run executes the operation handler on the coroutine. It reports false
// when shutdown stopped the coroutine mid-handler. A user panic becomes
// an engine failure, which reaches Run through the engine's next call.
func (inv *invocation) run() (finished bool) {
	defer func() {
		if r := recover(); r != nil && r != abortSignal {
			if _, ok := r.(engineFailure); ok {
				panic(r)
			}
			inv.eng.check(fmt.Errorf("panic in %s: %v\n%s", inv.describe(), r, debug.Stack()))
		}
	}()
	inv.ctx.inv = inv
	ctx := &inv.ctx
	switch inv.kind {
	case iSplit:
		inv.op.CallSplit(ctx, inv.env.obj)
	case iLeaf:
		inv.op.CallLeaf(ctx, inv.env.obj)
	case iAbsorb:
		inv.inst.state.Absorb(ctx, inv.env.obj)
	case iFinish:
		inv.inst.state.Finish(ctx)
	}
	return true
}

// --- engine-side invocation driving ---

// startInvocation builds and launches the invocation for a work item.
func (e *Engine) startInvocation(th *thread, item workItem) {
	if item.kind == wResume {
		// Continue a flow-control-suspended invocation on its thread; the
		// post itself was already launched when the credit arrived.
		e.resumeInv(item.parked.inv)
		return
	}
	inv := &invocation{eng: e, th: th}
	switch item.kind {
	case wData:
		env := item.env
		inv.env = env
		inv.op = env.dstOp
		switch env.dstOp.Kind() {
		case dps.KindSplit:
			inv.kind = iSplit
			inv.act = newActivation(env.token)
		case dps.KindLeaf:
			inv.kind = iLeaf
		case dps.KindMerge, dps.KindStream:
			// Dest checked that the object belongs to an instance of
			// this sink.
			_, inv.inst = env.token.top()
			inv.kind = iAbsorb
			if inv.inst.state == nil {
				inv.inst.state = env.dstOp.NewState(env.obj)
			}
			if env.dstOp.Kind() == dps.KindStream && inv.inst.act == nil {
				inv.inst.act = newActivation(inv.inst.parent)
			}
			inv.act = inv.inst.act
		}
	case wFinish:
		inv.kind = iFinish
		inv.inst = item.inst
		inv.op = item.inst.Pair.Sink()
		inv.act = inv.inst.act
	}
	var c *coro
	if n := len(e.free); n > 0 {
		c, e.free = e.free[n-1], e.free[:n-1]
	} else {
		c = &coro{}
		c.next, c.stop = iter.Pull(c.loop)
		c.stepDone = func() { e.stepDone(c) }
		e.coros = append(e.coros, c)
	}
	c.inv, inv.co = inv, c
	e.resumeInv(inv)
}

// resumeInv hands control to the invocation's coroutine and processes the
// next yielded step.
func (e *Engine) resumeInv(inv *invocation) {
	msg, _ := inv.co.next()
	e.handleYield(inv, msg)
}

// handleYield accounts an atomic step and schedules its effects.
func (e *Engine) handleYield(inv *invocation, msg yieldMsg) {
	e.stats.Steps++
	node := inv.th.coll.Node(inv.th.idx)
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Kind: TraceStepStart, Time: e.q.Now(), Node: node,
			Op: inv.op.Name(), Thread: inv.th.idx, Detail: fmt.Sprintf("%v %s", msg.work, inv.kind)})
	}
	c := inv.co
	c.msg, c.node = msg, node
	e.plat.Submit(node, msg.work, c.stepDone)
}

// stepDone runs when the atomic step in flight on coroutine c completes:
// it launches the step's post, then finishes or resumes the invocation.
func (e *Engine) stepDone(c *coro) {
	inv, msg := c.inv, c.msg
	c.msg = yieldMsg{}
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Kind: TraceStepEnd, Time: e.q.Now(), Node: c.node,
			Op: inv.op.Name(), Thread: inv.th.idx, Detail: inv.kind.String()})
	}
	if msg.post != nil {
		if e.performPost(inv, msg.post) {
			// Parked on flow control: the operation is suspended, so
			// its thread becomes available for other queued work.
			e.threadIdle(inv.th)
			return
		}
	}
	if msg.done {
		e.finishInvocation(inv)
		return
	}
	e.resumeInv(inv)
}

// performPost launches (or parks) a post whose atomic step just completed.
// It reports whether the invocation was parked by flow control.
func (e *Engine) performPost(inv *invocation, env *envelope) bool {
	if env.edge != nil && env.edge.Pair() != nil {
		_, inst := env.token.top()
		if !inst.Acquire() {
			inst.waiters = append(inst.waiters, &parkedPost{env: env, inv: inv})
			e.pending++
			return true
		}
	}
	e.send(inv.th.coll.Node(inv.th.idx), env)
	return false
}

// finishInvocation returns the invocation's coroutine to the free list
// and runs the end-of-invocation bookkeeping.
func (e *Engine) finishInvocation(inv *invocation) {
	inv.co.inv = nil
	e.free = append(e.free, inv.co)
	switch inv.kind {
	case iSplit, iFinish:
		if inv.act != nil { // a merge opens no instances
			e.closeActivation(inv.act, inv.th)
		}
	case iLeaf:
		e.check(inv.op.CheckEnd(inv.posts))
	case iAbsorb:
		inst := inv.inst
		e.check(inst.Absorb())
		e.ackAbsorb(inst, inv.th.coll.Node(inv.th.idx))
		e.checkComplete(inst)
	}
	e.threadIdle(inv.th)
}

// closeActivation emits closure control messages for every pair instance
// the activation opened: the sink learns the final posted count.
func (e *Engine) closeActivation(act *activation, srcTh *thread) {
	srcNode := srcTh.coll.Node(srcTh.idx)
	for _, inst := range act.order {
		sinkNode := inst.Pair.Sink().Collection().Node(inst.SinkThread)
		e.control(srcNode, sinkNode, func() {
			e.check(inst.Close(inst.Posted()))
			e.checkComplete(inst)
		})
	}
}

// ackAbsorb returns a flow-control credit to the instance's source.
func (e *Engine) ackAbsorb(inst *instance, sinkNode int) {
	if inst.Pair.Window() <= 0 {
		return
	}
	srcNode := inst.srcColl.Node(inst.srcThread)
	e.control(sinkNode, srcNode, func() {
		inst.Release()
		if len(inst.waiters) > 0 && inst.Acquire() {
			p := inst.waiters[0]
			inst.waiters = inst.waiters[1:]
			e.pending--
			// The suspended post ships as soon as the credit arrives; the
			// operation's continuation re-queues on its thread.
			e.send(p.inv.th.coll.Node(p.inv.th.idx), p.env)
			e.enqueue(p.inv.th, workItem{kind: wResume, parked: p})
		}
	})
}

// checkComplete schedules the Finish invocation once an instance is closed
// and fully absorbed.
func (e *Engine) checkComplete(inst *instance) {
	if !inst.Complete() {
		return
	}
	e.unfinished[inst.Pair.ID()]--
	sinkTh := e.threadOf(inst.Pair.Sink().Collection(), inst.SinkThread)
	e.enqueue(sinkTh, workItem{kind: wFinish, inst: inst})
}

// buildEnvelope routes a posted object. Runs on the invocation's coroutine
// while the engine is suspended, so engine state access is exclusive.
func (e *Engine) buildEnvelope(inv *invocation, edgeIdx int, obj dps.DataObject) *envelope {
	edge, err := inv.op.CheckPost(edgeIdx, obj, inv.posts)
	e.check(err)
	inv.posts++
	var tok token
	var seq int
	if pair := edge.Pair(); pair != nil {
		act := inv.act
		inst := act.insts[pair]
		if inst == nil {
			c, err := pair.OpenInstance(obj)
			e.check(err)
			e.stats.Instances++
			e.unfinished[pair.ID()]++
			inst = &instance{Instance: c, parent: act.parent, srcColl: inv.th.coll, srcThread: inv.th.idx}
			act.insts[pair] = inst
			act.order = append(act.order, inst)
		}
		seq = inst.Post()
		tok = act.parent.push(inst)
	} else {
		switch inv.kind {
		case iLeaf:
			tok, seq = inv.env.token, inv.env.seq
		case iFinish, iAbsorb:
			tok = inv.inst.parent
		}
	}
	top, _ := tok.top()
	dst, err := edge.Dest(obj, top, inv.th.idx, seq)
	e.check(err)
	return &envelope{
		obj:   obj,
		size:  dps.SizeOf(obj),
		token: tok,
		edge:  edge,
		dstOp: edge.To(),
		dst:   dst,
		seq:   seq,
	}
}

// --- Ctx implementation ---

// opCtx implements dps.Ctx for one invocation.
type opCtx struct {
	inv *invocation
}

func (c *opCtx) Post(obj dps.DataObject) { c.PostTo(0, obj) }

func (c *opCtx) PostTo(edgeIdx int, obj dps.DataObject) {
	inv := c.inv
	env := inv.eng.buildEnvelope(inv, edgeIdx, obj)
	inv.handoff(yieldMsg{work: inv.stepWork(), post: env})
}

func (c *opCtx) Compute(key string, work eventq.Duration, f func()) {
	e := c.inv.eng
	d := e.cfg.Durations.StepWork(key, work, f)
	if e.cfg.RecordDurations {
		e.samples[key] = e.samples[key].add(d)
	}
	c.inv.charged += d
}

func (c *opCtx) Phase(name string) { c.inv.eng.MarkPhase(name) }
func (c *opCtx) Thread() int       { return c.inv.th.idx }
func (c *opCtx) Width() int        { return c.inv.op.Collection().Width() }
func (c *opCtx) Node() int         { return c.inv.th.coll.Node(c.inv.th.idx) }
func (c *opCtx) Now() eventq.Time  { return c.inv.eng.q.Now() }
func (c *opCtx) NoAlloc() bool     { return c.inv.eng.cfg.NoAlloc }
func (c *opCtx) Store() dps.Store  { return c.inv.th.store }
