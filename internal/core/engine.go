package core

import (
	"errors"
	"fmt"
	"sort"

	"dpsim/internal/dps"
	"dpsim/internal/eventq"
)

// token is the immutable instance stack of a data object, innermost
// instance last.
type token struct {
	frames []*instance
}

func (t token) push(inst *instance) token {
	out := make([]*instance, len(t.frames)+1)
	copy(out, t.frames)
	out[len(t.frames)] = inst
	return token{frames: out}
}

// top returns the innermost instance's frame (no pair when there is none)
// and the instance itself.
func (t token) top() (dps.Frame, *instance) {
	if len(t.frames) == 0 {
		return dps.Frame{}, nil
	}
	inst := t.frames[len(t.frames)-1]
	return inst.Frame, inst
}

// instance is one activation of a split–merge pair. Source and sink share
// its dps.Instance account: the simulated platform has one memory.
type instance struct {
	dps.Instance
	parent token // instance stack of the context that opened it
	state  dps.MergeState

	// activation of the sink (for streams): output instances opened by
	// the state's posts, closed when the input instance finishes.
	act *activation

	// the source thread, where acks return and parked posts wait
	srcColl   *dps.Collection
	srcThread int
	waiters   []*parkedPost

	// absorbing counts absorb invocations started and not yet ended: a
	// stream absorb can park mid-invocation, and the instance completes
	// only once every absorb has ended.
	absorbing int
}

// activation groups the output pair instances opened by one source
// activation (a split invocation, or the lifetime of one stream input
// instance). Instances are kept in creation order for determinism.
type activation struct {
	parent token
	insts  map[*dps.Pair]*instance
	order  []*instance
}

func newActivation(parent token) *activation {
	return &activation{parent: parent, insts: make(map[*dps.Pair]*instance)}
}

// parkedPost is a post suspended by flow control together with the
// invocation awaiting its completion.
type parkedPost struct {
	env *envelope
	inv *invocation
}

// envelope is a routed data object in flight.
type envelope struct {
	obj   dps.DataObject
	size  int64
	token token
	edge  *dps.Edge
	dstOp *dps.Op
	dst   int // collection-local thread index
	seq   int // post sequence within the pair instance (routing input)
}

// workItem is one unit of thread work.
type workItem struct {
	kind   workKind
	env    *envelope   // for wData
	inst   *instance   // for wFinish
	parked *parkedPost // for wResume
}

type workKind int

const (
	wData workKind = iota
	wFinish
	// wResume continues an invocation that was suspended by flow control
	// after its credit arrived. The suspended operation released its
	// thread (other operations of the same thread keep running, paper
	// Fig. 6 interleaving); the continuation queues like any other work.
	wResume
)

// thread is the engine-side state of one DPS thread (mapped 1:1 onto a
// virtual execution thread).
type thread struct {
	coll  *dps.Collection
	idx   int
	queue []workItem
	busy  bool
	store dps.Store
}

type threadKey struct {
	coll *dps.Collection
	idx  int
}

// engineFailure carries a fatal engine error through panic/recover inside
// Run.
type engineFailure struct{ err error }

// DeadlockError reports a run that stalled with pending work: typically a
// flow-control window that can never be refilled or an application bug.
type DeadlockError struct {
	// Pending describes the stuck entities.
	Pending []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: simulation deadlocked with %d pending entities: %v", len(e.Pending), e.Pending)
}

// Engine executes a DPS application on a Platform. Create with New, seed
// input with Inject, then call Run once.
type Engine struct {
	cfg   Config
	q     *eventq.Queue
	plat  Platform
	graph *dps.Graph

	threads map[threadKey]*thread

	// unfinished counts each pair's instances opened and not yet
	// complete, by pair ID.
	unfinished []int

	// coros holds every coroutine in creation order (shutdown, deadlock
	// diagnostics); free holds those bound to no invocation.
	coros []*coro
	free  []*coro

	// per-key sum and count of charged durations (RecordDurations)
	samples map[string]durationSum

	phases []PhaseMark
	allocs []AllocMark

	stats   Result
	pending int // queued + running work items and parked posts
	ran     bool
}

// New builds an engine for the configured graph and platform.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, errors.New("core: Config.Graph is required")
	}
	if cfg.Platform == nil {
		return nil, errors.New("core: Config.Platform is required")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid flow graph: %w", err)
	}
	if cfg.Durations == nil {
		cfg.Durations = AnalyticSource()
	}
	if cfg.ControlBytes <= 0 {
		cfg.ControlBytes = 64
	}
	e := &Engine{
		cfg:        cfg,
		q:          cfg.Platform.Queue(),
		plat:       cfg.Platform,
		graph:      cfg.Graph,
		threads:    make(map[threadKey]*thread),
		unfinished: make([]int, len(cfg.Graph.Pairs())),
		samples:    make(map[string]durationSum),
	}
	// Record allocation history whenever any collection changes.
	onChange := func() { e.recordAlloc() }
	for _, op := range cfg.Graph.Ops() {
		op.Collection().SetOnChange(onChange)
	}
	e.recordAlloc()
	return e, nil
}

// Queue exposes the platform event queue (to co-schedule application
// events such as timed reconfigurations).
func (e *Engine) Queue() *eventq.Queue { return e.q }

// Graph returns the executed flow graph.
func (e *Engine) Graph() *dps.Graph { return e.graph }

// Phases returns the recorded phase marks.
func (e *Engine) Phases() []PhaseMark { return e.phases }

// Allocations returns the allocated-node history (one mark per change).
func (e *Engine) Allocations() []AllocMark { return e.allocs }

// recordAlloc appends the current distinct-node count over all collections.
func (e *Engine) recordAlloc() {
	nodes := make(map[int]bool)
	counted := make(map[*dps.Collection]bool)
	for _, op := range e.graph.Ops() {
		c := op.Collection()
		if counted[c] {
			continue
		}
		counted[c] = true
		for _, n := range c.Nodes() {
			nodes[n] = true
		}
	}
	e.allocs = append(e.allocs, AllocMark{Time: e.q.Now(), Nodes: len(nodes)})
}

// MarkPhase records a named phase boundary at the current virtual time.
func (e *Engine) MarkPhase(name string) {
	e.phases = append(e.phases, PhaseMark{Time: e.q.Now(), Name: name})
	if e.cfg.Trace != nil {
		e.cfg.Trace(TraceEvent{Kind: TracePhase, Start: e.q.Now(), End: e.q.Now(), Detail: name})
	}
}

// durationSum accumulates one key's durations in the order they occur.
type durationSum struct {
	sum eventq.Duration
	n   int
}

func (s durationSum) add(d eventq.Duration) durationSum { return durationSum{s.sum + d, s.n + 1} }
func (s durationSum) mean() eventq.Duration             { return s.sum / eventq.Duration(s.n) }

// DurationTable returns the mean charged duration per computation key
// (requires RecordDurations). This is the paper's "prior measurements"
// source for partial direct execution.
func (e *Engine) DurationTable() map[string]eventq.Duration {
	out := make(map[string]eventq.Duration, len(e.samples))
	for k, s := range e.samples {
		out[k] = s.mean()
	}
	return out
}

// threadOf returns (creating lazily) the engine thread for (coll, idx).
func (e *Engine) threadOf(coll *dps.Collection, idx int) *thread {
	k := threadKey{coll, idx}
	if th, ok := e.threads[k]; ok {
		return th
	}
	th := &thread{coll: coll, idx: idx, store: make(dps.Store)}
	e.threads[k] = th
	return th
}

// Store returns the local store of a thread (for seeding thread-local
// data, e.g. the initial matrix distribution, and for inspecting results).
func (e *Engine) Store(coll *dps.Collection, idx int) dps.Store {
	return e.threadOf(coll, idx).store
}

// Inject queues obj for delivery to thread t of op's collection before the
// run starts (or during it, from application event callbacks). Only split
// and leaf operations accept injected objects. The delivery happens
// through the event queue, inside Run's failure handling, which is also
// where a rejected injection fails the run.
func (e *Engine) Inject(op *dps.Op, t int, obj dps.DataObject) {
	env := &envelope{obj: obj, size: dps.SizeOf(obj), dstOp: op, dst: t}
	e.q.After(0, func() {
		e.check(op.CheckInject(t))
		e.deliver(env)
	})
}

// check aborts the run with err, a broken DPS rule or a handler's panic,
// unless it is nil.
func (e *Engine) check(err error) {
	if err != nil {
		panic(engineFailure{fmt.Errorf("core: %w", err)})
	}
}

// Run executes events until the simulation drains, returning the run
// summary. A second call returns an error.
func (e *Engine) Run() (Result, error) {
	if e.ran {
		return Result{}, errors.New("core: engine already ran")
	}
	e.ran = true
	err := e.drive()
	e.shutdown()
	e.stats.Elapsed = e.q.Now()
	if err != nil {
		return e.stats, err
	}
	if e.pending > 0 {
		return e.stats, &DeadlockError{Pending: e.pendingDescriptions()}
	}
	if err := e.graph.CheckQuiescent(func(p *dps.Pair) int { return e.unfinished[p.ID()] }); err != nil {
		return e.stats, fmt.Errorf("core: %w", err)
	}
	return e.stats, nil
}

func (e *Engine) drive() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(engineFailure); ok {
				err = f.err
				return
			}
			panic(r)
		}
	}()
	for e.q.Step() {
	}
	return nil
}

// shutdown stops every coroutine in creation order so none leaks: a bound
// one unwinds its handler, a free one leaves its loop.
func (e *Engine) shutdown() {
	for _, c := range e.coros {
		c.stop()
	}
}

func (e *Engine) pendingDescriptions() []string {
	var out []string
	for _, c := range e.coros {
		if c.inv != nil {
			out = append(out, c.inv.describe())
		}
	}
	for _, th := range e.threads {
		if len(th.queue) > 0 {
			out = append(out, fmt.Sprintf("%s[%d]: %d queued items", th.coll.Name(), th.idx, len(th.queue)))
		}
	}
	sort.Strings(out)
	return out
}

// enqueue adds a work item to a thread and dispatches if idle.
func (e *Engine) enqueue(th *thread, item workItem) {
	th.queue = append(th.queue, item)
	e.pending++
	e.dispatch(th)
}

func (e *Engine) dispatch(th *thread) {
	if th.busy || len(th.queue) == 0 {
		return
	}
	item := th.queue[0]
	th.queue = th.queue[1:]
	e.pending--
	th.busy = true
	e.startInvocation(th, item)
}

// threadIdle marks the invocation's thread free and runs the next item.
func (e *Engine) threadIdle(th *thread) {
	th.busy = false
	e.dispatch(th)
}

// deliver queues an envelope on its destination thread, which the DPS
// rules checked was active when the object was routed or injected. A
// thread deactivated since still drains it (the DPS thread manager
// destroys a thread only once its queue is empty).
func (e *Engine) deliver(env *envelope) {
	e.enqueue(e.threadOf(env.dstOp.Collection(), env.dst), workItem{kind: wData, env: env})
}

// send transports an envelope: local deliveries wait LocalLatency; remote
// ones traverse the platform network.
func (e *Engine) send(srcNode int, env *envelope) {
	dstNode := env.dstOp.Collection().Node(env.dst)
	e.stats.Posts++
	if srcNode == dstNode {
		e.stats.LocalDeliveries++
		e.q.After(e.cfg.LocalLatency, func() { e.deliver(env) })
		return
	}
	e.stats.Transfers++
	sent := e.q.Now() // captured by value: the callback allocates no more for it
	e.plat.Send(srcNode, dstNode, env.size, func() {
		if e.cfg.Trace != nil {
			e.cfg.Trace(TraceEvent{Kind: TraceTransfer, Start: sent, End: e.q.Now(), Node: dstNode,
				Op: env.dstOp.Name(), Thread: env.dst, Detail: fmt.Sprintf("%dB from node %d", env.size, srcNode)})
		}
		e.deliver(env)
	})
}

// control sends a zero-payload control message (closure/ack) between
// nodes, invoking fn on arrival.
func (e *Engine) control(srcNode, dstNode int, fn func()) {
	e.stats.ControlMsgs++
	if srcNode == dstNode {
		e.q.After(e.cfg.LocalLatency, fn)
		return
	}
	e.plat.Send(srcNode, dstNode, e.cfg.ControlBytes, fn)
}
