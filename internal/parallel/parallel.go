// Package parallel is the real (non-simulated) DPS runtime: DPS execution
// threads are goroutines, data objects crossing nodes travel serialized
// over real TCP sockets, and computations actually execute. Its execution
// rules (instances, routing, closure and acknowledgement messages, credit
// windows) are the simulation engine's, stated once in internal/dps; this
// package adds goroutines, locks, wire frames and deferred posts. So a DPS
// application runs unmodified either way, the premise of the paper's
// direct-execution methodology (§3: "the real and simulated applications
// may be run identically"). TestRealRuntimeMatchesEngine pins the two
// executors' results against each other, TestExecutorsFailAlike their
// errors.
//
// Deployment note: all logical nodes live in one OS process, connected by
// a loopback TCP mesh. Quiescence detection uses a shared in-flight
// counter; a multi-process deployment would replace it with a distributed
// termination protocol.
package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpsim/internal/dps"
	"dpsim/internal/serial"
	"dpsim/internal/transport"
)

// message kinds on the wire.
const (
	kindData uint8 = iota + 1
	kindClosure
	kindAck
)

// queueDepth bounds each execution thread's input queue: deep enough that
// a post rarely waits on a busy thread, while a full queue still holds
// back the poster.
const queueDepth = 4096

// Config assembles a runtime.
type Config struct {
	// Graph is the application flow graph.
	Graph *dps.Graph
	// Nodes is the number of logical compute nodes.
	Nodes int
	// Codec decodes data objects arriving over the transport. Required
	// for any cross-node traffic.
	Codec *transport.Codec
}

// Stats counts what a run did, under the names of core.Result.
type Stats struct {
	// Posts is the number of data objects posted.
	Posts uint64
	// Transfers is the number of posted objects that crossed nodes.
	Transfers uint64
	// ControlMsgs counts closure and acknowledgement messages.
	ControlMsgs uint64
	// Instances is the number of pair instances opened.
	Instances uint64
	// Invocations counts operation invocations: one per data object an
	// operation receives, plus one per Finish.
	Invocations uint64
}

// wireFrame is one instance-stack level on the wire. It carries enough to
// route acknowledgements back to the source node and forwarded objects to
// the instance's aggregation thread.
type wireFrame struct {
	pairID     uint32
	instID     uint64
	srcNode    uint32
	sinkThread uint32
}

// item is one unit of execution-thread work.
type item struct {
	kind   uint8 // kindData or kindClosure
	op     *dps.Op
	obj    dps.DataObject
	frames []wireFrame
	seq    int
	pair   *dps.Pair // closure
	instID uint64
	total  int
}

// srcInstance is the source-side record of one pair instance: its
// account's posts and flow-control credits, and the deferred posts
// awaiting credits. The opening activation holds it and, while acks may
// still arrive for a windowed pair, so does the node's ack index. mu
// guards all but the posted count, which only the opening thread touches.
type srcInstance struct {
	id uint64

	mu sync.Mutex
	dps.Instance
	closed  bool // the opening activation ended
	pending []pendingPost
}

// sinkInstance is the sink-side record of one pair instance: its
// account's absorbed objects and closure, and the merge state. A finished
// instance keeps its account, so that an object delivered to it later is
// named rather than opening a new instance.
type sinkInstance struct {
	dps.Instance
	state  dps.MergeState
	act    *activation // stream output instances
	parent []wireFrame
}

// activation tracks the output instances opened by a source activation.
type activation struct {
	parent []wireFrame
	insts  map[*dps.Pair]*srcInstance
	order  []*srcInstance
}

func newActivation(parent []wireFrame) *activation {
	return &activation{parent: parent, insts: make(map[*dps.Pair]*srcInstance)}
}

// Runtime executes one DPS application across logical nodes.
type Runtime struct {
	graph   *dps.Graph
	codec   *transport.Codec
	tr      *transport.TCP
	nodes   []*nodeState
	threads map[*dps.Collection][]*workerThread
	nextID  atomic.Uint64

	posts, transfers, controlMsgs, instances, invocations atomic.Uint64
	// unfinished counts each pair's instances opened and not yet
	// complete, by pair ID.
	unfinished []atomic.Int64

	// inflight counts work not yet done; Wait sleeps on idle until it
	// reaches zero or err is set.
	inflight atomic.Int64
	mu       sync.Mutex
	idle     *sync.Cond
	err      error

	phaseMu sync.Mutex
	phases  []Phase
	started time.Time

	closed    chan struct{}
	closeOnce sync.Once
	workers   sync.WaitGroup
}

// Phase is a wall-clock phase mark recorded by operations.
type Phase struct {
	Elapsed time.Duration
	Name    string
}

type nodeState struct {
	rt    *Runtime
	id    int
	srcMu sync.Mutex
	// srcInst indexes the windowed instances sourced here by ID, for
	// their acks.
	srcInst map[uint64]*srcInstance
}

type workerThread struct {
	node  *nodeState
	coll  *dps.Collection
	idx   int
	queue chan item
	store dps.Store
	sinks map[uint64]*sinkInstance
}

// New builds and starts a runtime (worker goroutines and transport).
func New(cfg Config) (*Runtime, error) {
	if cfg.Graph == nil {
		return nil, errors.New("parallel: Config.Graph is required")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: invalid graph: %w", err)
	}
	if cfg.Nodes <= 0 {
		return nil, errors.New("parallel: need at least one node")
	}
	rt := &Runtime{
		graph:      cfg.Graph,
		codec:      cfg.Codec,
		threads:    make(map[*dps.Collection][]*workerThread),
		unfinished: make([]atomic.Int64, len(cfg.Graph.Pairs())),
		closed:     make(chan struct{}),
		started:    time.Now(),
	}
	rt.idle = sync.NewCond(&rt.mu)
	rt.nodes = make([]*nodeState, cfg.Nodes)
	handlers := make([]transport.Handler, cfg.Nodes)
	for i := range rt.nodes {
		rt.nodes[i] = &nodeState{rt: rt, id: i, srcInst: make(map[uint64]*srcInstance)}
		handlers[i] = rt.nodes[i].handleMessage
	}
	// Materialize one execution thread per (collection, index).
	for _, op := range cfg.Graph.Ops() {
		coll := op.Collection()
		if rt.threads[coll] != nil {
			continue
		}
		ths := make([]*workerThread, coll.Width())
		for idx := range ths {
			ths[idx] = &workerThread{
				node: rt.nodes[coll.Node(idx)%cfg.Nodes], coll: coll, idx: idx,
				queue: make(chan item, queueDepth),
				store: make(dps.Store),
				sinks: make(map[uint64]*sinkInstance),
			}
			rt.workers.Add(1)
			go ths[idx].run()
		}
		rt.threads[coll] = ths
	}
	var err error
	if rt.tr, err = transport.NewTCP(handlers); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// fail records the first runtime error and wakes Wait.
func (rt *Runtime) fail(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.idle.Broadcast()
	rt.mu.Unlock()
}

// addWork and done bracket one unit of in-flight work: every addWork is
// matched by exactly one done.
func (rt *Runtime) addWork() { rt.inflight.Add(1) }

func (rt *Runtime) done() {
	if rt.inflight.Add(-1) == 0 {
		rt.mu.Lock()
		rt.idle.Broadcast()
		rt.mu.Unlock()
	}
}

// drop abandons one unit of in-flight work with err.
func (rt *Runtime) drop(err error) {
	rt.fail(err)
	rt.done()
}

// broken records err, if any, as a broken DPS rule, and reports whether
// there was one.
func (rt *Runtime) broken(err error) bool {
	if err != nil {
		rt.fail(fmt.Errorf("parallel: %w", err))
	}
	return err != nil
}

// Inject delivers obj to thread t of op's collection (the application
// bootstrap).
func (rt *Runtime) Inject(op *dps.Op, t int, obj dps.DataObject) {
	if rt.broken(op.CheckInject(t)) {
		return
	}
	rt.addWork()
	rt.route(item{kind: kindData, op: op, obj: obj}, t)
}

// Wait blocks until the application quiesces or fails and returns the
// first error. Quiescence with an instance that never finished is an
// error too.
func (rt *Runtime) Wait() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.inflight.Load() > 0 && rt.err == nil {
		rt.idle.Wait()
	}
	if err := rt.graph.CheckQuiescent(func(p *dps.Pair) int { return int(rt.unfinished[p.ID()].Load()) }); err != nil && rt.err == nil {
		rt.err = fmt.Errorf("parallel: %w", err)
	}
	return rt.err
}

// Close stops the transport and the worker goroutines, and returns once
// the workers have exited.
func (rt *Runtime) Close() {
	rt.closeOnce.Do(func() {
		close(rt.closed)
		if rt.tr != nil {
			rt.tr.Close()
		}
		rt.workers.Wait()
	})
}

// Store returns a thread's local store (seed inputs, read results).
func (rt *Runtime) Store(coll *dps.Collection, idx int) dps.Store {
	return rt.threads[coll][idx].store
}

// Phases returns the recorded wall-clock phase marks.
func (rt *Runtime) Phases() []Phase {
	rt.phaseMu.Lock()
	defer rt.phaseMu.Unlock()
	return append([]Phase(nil), rt.phases...)
}

// Stats returns the run's counters so far.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Posts:       rt.posts.Load(),
		Transfers:   rt.transfers.Load(),
		ControlMsgs: rt.controlMsgs.Load(),
		Instances:   rt.instances.Load(),
		Invocations: rt.invocations.Load(),
	}
}

// pair returns the pair with wire ID id, or nil.
func (rt *Runtime) pair(id uint32) *dps.Pair {
	if pairs := rt.graph.Pairs(); int64(id) < int64(len(pairs)) {
		return pairs[id]
	}
	return nil
}

// top reads the innermost of an object's wire frames, as sent and as a
// dps.Frame (with no pair for no frame or an unknown pair ID).
func (rt *Runtime) top(frames []wireFrame) (wireFrame, dps.Frame) {
	if len(frames) == 0 {
		return wireFrame{}, dps.Frame{}
	}
	top := frames[len(frames)-1]
	return top, dps.Frame{Pair: rt.pair(top.pairID), SinkThread: int(top.sinkThread)}
}

// thread returns execution thread idx of op's collection.
func (rt *Runtime) thread(op *dps.Op, idx int) (*workerThread, error) {
	ths := rt.threads[op.Collection()]
	if idx < 0 || idx >= len(ths) {
		return nil, fmt.Errorf("parallel: object for %s routed to thread %d outside width %d", op, idx, len(ths))
	}
	return ths[idx], nil
}

// route hands an item, and its unit of in-flight work, to its destination
// execution thread.
func (rt *Runtime) route(it item, dst int) {
	th, err := rt.thread(it.op, dst)
	if err != nil {
		rt.drop(err)
		return
	}
	th.enqueue(it)
}

// send ships a data or closure item to thread dst of it.op: onto the
// thread's queue when it lives on srcNode, over the transport otherwise.
func (rt *Runtime) send(srcNode int, it item, dst int) {
	rt.addWork()
	th, err := rt.thread(it.op, dst)
	if err != nil {
		rt.drop(err)
		return
	}
	if th.node.id == srcNode {
		th.enqueue(it)
		return
	}
	if it.kind == kindData {
		rt.transfers.Add(1)
	}
	body, err := rt.encode(it, dst)
	if err == nil {
		err = rt.tr.Send(th.node.id, transport.Message{From: srcNode, Kind: it.kind, Body: body})
	}
	if err != nil {
		rt.drop(err)
	}
}

// sendData posts a data item to thread dst of it.op.
func (rt *Runtime) sendData(srcNode int, it item, dst int) {
	rt.posts.Add(1)
	rt.send(srcNode, it, dst)
}

// sendClosure informs the sink of an instance's final posted count.
func (rt *Runtime) sendClosure(srcNode int, si *srcInstance) {
	rt.controlMsgs.Add(1)
	rt.send(srcNode, item{kind: kindClosure, op: si.Pair.Sink(), pair: si.Pair, instID: si.id, total: si.Posted()}, si.SinkThread)
}

// sendAck returns a flow-control credit to the posting node. Acks count as
// in-flight work so quiescence cannot be declared while a deferred post is
// still waiting for its credit.
func (rt *Runtime) sendAck(srcNode int, fr wireFrame) {
	rt.addWork()
	rt.controlMsgs.Add(1)
	dstNode := int(fr.srcNode)
	if dstNode == srcNode {
		rt.nodes[dstNode].handleAck(fr.instID)
		rt.done()
		return
	}
	b := serial.NewBuffer(8)
	b.U64(fr.instID)
	if err := rt.tr.Send(dstNode, transport.Message{From: srcNode, Kind: kindAck, Body: b.BytesOut()}); err != nil {
		rt.drop(err)
	}
}

// encode frames a data or closure item bound for thread dst.
func (rt *Runtime) encode(it item, dst int) ([]byte, error) {
	b := serial.NewBuffer(256)
	if it.kind == kindClosure {
		b.U32(uint32(it.pair.ID()))
		b.U64(it.instID)
		b.U32(uint32(it.total))
		b.U32(uint32(dst))
		return b.BytesOut(), nil
	}
	if rt.codec == nil {
		return nil, errors.New("parallel: cross-node traffic requires a Codec")
	}
	b.U32(uint32(it.op.ID()))
	b.U32(uint32(dst))
	b.U32(uint32(it.seq))
	b.U8(uint8(len(it.frames)))
	for _, f := range it.frames {
		b.U32(f.pairID)
		b.U64(f.instID)
		b.U32(f.srcNode)
		b.U32(f.sinkThread)
	}
	payload, err := rt.codec.Encode(it.obj)
	if err != nil {
		return nil, err
	}
	b.Bytes(payload)
	return b.BytesOut(), nil
}

// handleMessage decodes transport messages arriving at a node. Each
// message carries the unit of in-flight work its sender added.
func (n *nodeState) handleMessage(msg transport.Message) {
	rt := n.rt
	r := serial.NewReader(msg.Body)
	switch msg.Kind {
	case kindData:
		opID := int(r.U32(0))
		dst := int(r.U32(0))
		seq := int(r.U32(0))
		frames := make([]wireFrame, r.U8(0))
		for i := range frames {
			frames[i] = wireFrame{pairID: r.U32(0), instID: r.U64(0), srcNode: r.U32(0), sinkThread: r.U32(0)}
		}
		payload := r.Bytes()
		if r.Err() != nil {
			rt.drop(fmt.Errorf("parallel: corrupt data frame: %w", r.Err()))
			return
		}
		if opID < 0 || opID >= len(rt.graph.Ops()) {
			rt.drop(fmt.Errorf("parallel: unknown op id %d", opID))
			return
		}
		obj, err := rt.codec.Decode(payload)
		if err != nil {
			rt.drop(err)
			return
		}
		rt.route(item{kind: kindData, op: rt.graph.Ops()[opID], obj: obj, frames: frames, seq: seq}, dst)
	case kindClosure:
		pair := rt.pair(r.U32(0))
		instID := r.U64(0)
		total := int(r.U32(0))
		dst := int(r.U32(0))
		if pair == nil || r.Err() != nil {
			rt.drop(errors.New("parallel: corrupt closure frame"))
			return
		}
		rt.route(item{kind: kindClosure, op: pair.Sink(), pair: pair, instID: instID, total: total}, dst)
	case kindAck:
		instID := r.U64(0)
		if r.Err() != nil {
			rt.drop(errors.New("parallel: corrupt ack frame"))
			return
		}
		n.handleAck(instID)
		rt.done()
	default:
		rt.drop(fmt.Errorf("parallel: unknown message kind %d", msg.Kind))
	}
}

// open opens a pair instance sourced on this node for its first object.
// A windowed instance joins the node's ack index.
func (n *nodeState) open(pair *dps.Pair, first dps.DataObject) (*srcInstance, error) {
	c, err := pair.OpenInstance(first)
	if err != nil {
		return nil, err
	}
	si := &srcInstance{id: n.rt.nextID.Add(1), Instance: c}
	n.rt.instances.Add(1)
	n.rt.unfinished[pair.ID()].Add(1)
	if pair.Window() > 0 {
		n.srcMu.Lock()
		n.srcInst[si.id] = si
		n.srcMu.Unlock()
	}
	return si, nil
}

// retire drops si from the ack index once no ack can arrive for it: its
// activation closed it, every credit came back and no post is pending. An
// unwindowed instance, never indexed, keeps its credits. Callers hold
// si.mu.
func (n *nodeState) retire(si *srcInstance) {
	if si.closed && si.InFlight() == 0 && len(si.pending) == 0 {
		n.srcMu.Lock()
		delete(n.srcInst, si.id)
		n.srcMu.Unlock()
	}
}

// handleAck returns a credit; if a deferred post was waiting, it ships now.
func (n *nodeState) handleAck(instID uint64) {
	n.srcMu.Lock()
	si := n.srcInst[instID]
	n.srcMu.Unlock()
	if si == nil {
		return
	}
	var next *pendingPost
	si.mu.Lock()
	si.Release()
	if len(si.pending) > 0 && si.Acquire() {
		next, si.pending = &si.pending[0], si.pending[1:]
	}
	n.retire(si)
	si.mu.Unlock()
	if next != nil {
		n.rt.sendData(n.id, next.it, next.dst)
	}
}
