package dps

import (
	"errors"
	"fmt"
)

// Op is one operation node of a flow graph.
type Op struct {
	id   int
	name string
	kind Kind
	coll *Collection

	leaf     LeafFunc
	split    SplitFunc
	newState NewStateFunc

	outs []*Edge // outgoing edges in PostTo index order

	graph *Graph
}

// ID returns the operation's index within its graph.
func (o *Op) ID() int { return o.id }

// Name returns the operation name.
func (o *Op) Name() string { return o.name }

// Kind returns the operation kind.
func (o *Op) Kind() Kind { return o.kind }

// Collection returns the thread collection the operation executes on.
func (o *Op) Collection() *Collection { return o.coll }

func (o *Op) String() string { return fmt.Sprintf("%s(%s)", o.name, o.kind) }

// CallLeaf invokes the leaf handler (engine use).
func (o *Op) CallLeaf(ctx Ctx, in DataObject) { o.leaf(ctx, in) }

// CallSplit invokes the split handler (engine use).
func (o *Op) CallSplit(ctx Ctx, in DataObject) { o.split(ctx, in) }

// NewState creates merge/stream per-instance state (engine use). first is
// the object that opened the instance.
func (o *Op) NewState(first DataObject) MergeState { return o.newState(first) }

// IsSink reports whether the operation aggregates pair instances (merge or
// stream input side).
func (o *Op) IsSink() bool { return o.kind == KindMerge || o.kind == KindStream }

// IsSource reports whether posts from the operation open pair instances
// (split or stream output side).
func (o *Op) IsSource() bool { return o.kind == KindSplit || o.kind == KindStream }

// Edge is a directed flow-graph edge with its routing function.
type Edge struct {
	id    int
	from  *Op
	to    *Op
	route RouteFunc
	pair  *Pair // set when this edge's posts open instances of a pair
}

// To returns the destination operation.
func (e *Edge) To() *Op { return e.to }

// Pair returns the split–merge pair whose instances are opened by posts on
// this edge, or nil.
func (e *Edge) Pair() *Pair { return e.pair }

// Pair couples a source operation (split, or the output side of a stream)
// with the sink operation (merge, or the input side of a stream) that
// aggregates the objects it posts. Every post on one of the pair's source
// edges belongs to the pair instance opened by the triggering input.
type Pair struct {
	id     int
	source *Op
	sink   *Op
	// routeInstance fixes the aggregation thread of each instance.
	routeInstance InstanceRouteFunc
	// window limits the number of unacknowledged objects in circulation
	// inside one instance (0 = unlimited): the DPS flow control.
	window int
}

// ID returns the pair's index within its graph.
func (p *Pair) ID() int { return p.id }

// Source returns the posting operation.
func (p *Pair) Source() *Op { return p.source }

// Sink returns the aggregating operation.
func (p *Pair) Sink() *Op { return p.sink }

// Window returns the flow-control window (0 = unlimited).
func (p *Pair) Window() int { return p.window }

// SetWindow sets the flow-control window (0 disables flow control).
func (p *Pair) SetWindow(w int) {
	if w < 0 {
		panic("dps: negative flow-control window")
	}
	p.window = w
}

func (p *Pair) String() string {
	return fmt.Sprintf("pair(%s→%s)", p.source.name, p.sink.name)
}

// Graph is a DPS flow graph: operations, edges and split–merge pairs. It
// is constructed at runtime by the application (paper §2: "the flow graph
// is constructed at run time").
type Graph struct {
	name  string
	ops   []*Op
	edges []*Edge
	pairs []*Pair
}

// NewGraph creates an empty flow graph.
func NewGraph(name string) *Graph { return &Graph{name: name} }

// Name returns the graph name.
func (g *Graph) Name() string { return g.name }

// Ops returns all operations in creation order.
func (g *Graph) Ops() []*Op { return g.ops }

// Pairs returns all declared split–merge pairs.
func (g *Graph) Pairs() []*Pair { return g.pairs }

// Edges returns all edges in creation order.
func (g *Graph) Edges() []*Edge { return g.edges }

func (g *Graph) addOp(name string, kind Kind, coll *Collection) *Op {
	if coll == nil {
		panic(fmt.Sprintf("dps: operation %q needs a collection", name))
	}
	op := &Op{id: len(g.ops), name: name, kind: kind, coll: coll, graph: g}
	g.ops = append(g.ops, op)
	return op
}

// Leaf adds a leaf operation executing fn.
func (g *Graph) Leaf(name string, coll *Collection, fn LeafFunc) *Op {
	if fn == nil {
		panic("dps: nil leaf handler")
	}
	op := g.addOp(name, KindLeaf, coll)
	op.leaf = fn
	return op
}

// Split adds a split operation executing fn.
func (g *Graph) Split(name string, coll *Collection, fn SplitFunc) *Op {
	if fn == nil {
		panic("dps: nil split handler")
	}
	op := g.addOp(name, KindSplit, coll)
	op.split = fn
	return op
}

// Merge adds a merge operation; newState creates the per-instance state.
func (g *Graph) Merge(name string, coll *Collection, newState NewStateFunc) *Op {
	if newState == nil {
		panic("dps: nil merge state factory")
	}
	op := g.addOp(name, KindMerge, coll)
	op.newState = newState
	return op
}

// Stream adds a stream operation (fused merge+split); newState creates the
// per-instance state, whose Absorb may post.
func (g *Graph) Stream(name string, coll *Collection, newState NewStateFunc) *Op {
	if newState == nil {
		panic("dps: nil stream state factory")
	}
	op := g.addOp(name, KindStream, coll)
	op.newState = newState
	return op
}

// Connect adds an edge from -> to with the given routing function. Edges
// whose destination is a merge or stream must pass route == nil: objects
// of an instance converge on the thread fixed by the pair's instance
// routing. Returns the edge index within from's outgoing edges (the value
// to pass to Ctx.PostTo).
func (g *Graph) Connect(from, to *Op, route RouteFunc) int {
	if from == nil || to == nil {
		panic("dps: Connect with nil op")
	}
	if from.graph != g || to.graph != g {
		panic("dps: Connect across graphs")
	}
	if to.IsSink() && route != nil {
		panic(fmt.Sprintf("dps: edge %s→%s into a %s must not have a routing function; the pair's instance routing decides", from.name, to.name, to.kind))
	}
	if !to.IsSink() && route == nil {
		panic(fmt.Sprintf("dps: edge %s→%s needs a routing function", from.name, to.name))
	}
	e := &Edge{id: len(g.edges), from: from, to: to, route: route}
	g.edges = append(g.edges, e)
	from.outs = append(from.outs, e)
	return len(from.outs) - 1
}

// PairOps declares that objects posted by source (on the edges given by
// edgeIdx, indices into source's outgoing edges) are aggregated by sink.
// routeInstance fixes the aggregation thread per instance. Every source
// edge that transitively leads to the sink must be listed; the engine
// verifies at runtime that objects arriving at a sink carry the matching
// pair frame.
func (g *Graph) PairOps(source, sink *Op, routeInstance InstanceRouteFunc, edgeIdx ...int) *Pair {
	if !source.IsSource() {
		panic(fmt.Sprintf("dps: %s cannot open pair instances", source))
	}
	if !sink.IsSink() {
		panic(fmt.Sprintf("dps: %s cannot aggregate pair instances", sink))
	}
	if routeInstance == nil {
		routeInstance = FirstThread
	}
	p := &Pair{id: len(g.pairs), source: source, sink: sink, routeInstance: routeInstance}
	g.pairs = append(g.pairs, p)
	if len(edgeIdx) == 0 {
		// Default: all outgoing edges of the source belong to this pair.
		for _, e := range source.outs {
			if e.pair != nil {
				panic(fmt.Sprintf("dps: edge %s→%s already belongs to %s", e.from.name, e.to.name, e.pair))
			}
			e.pair = p
		}
	} else {
		for _, i := range edgeIdx {
			if i < 0 || i >= len(source.outs) {
				panic(fmt.Sprintf("dps: %s has no out edge %d", source, i))
			}
			e := source.outs[i]
			if e.pair != nil {
				panic(fmt.Sprintf("dps: edge %s→%s already belongs to %s", e.from.name, e.to.name, e.pair))
			}
			e.pair = p
		}
	}
	return p
}

// Validate checks the structural integrity of the graph: acyclicity,
// pair consistency, and the reachability of every pair's sink from its
// source edges through leaf chains.
func (g *Graph) Validate() error {
	var errs []error
	// Every source edge must belong to a pair (posts must be accountable).
	for _, e := range g.edges {
		if e.from.IsSource() && e.pair == nil {
			errs = append(errs, fmt.Errorf("edge %s→%s: posts from a %s must belong to a declared pair", e.from.name, e.to.name, e.from.kind))
		}
		if e.from.kind == KindLeaf && e.pair != nil {
			errs = append(errs, fmt.Errorf("edge %s→%s: leaf posts cannot open pair instances", e.from.name, e.to.name))
		}
	}
	// Merge outputs must not be pair edges (they carry the parent frame).
	for _, op := range g.ops {
		if op.kind == KindMerge {
			for _, e := range op.outs {
				if e.pair != nil {
					errs = append(errs, fmt.Errorf("merge %s: outgoing edge to %s cannot open a pair (merge results belong to the parent instance)", op.name, e.to.name))
				}
			}
		}
		if op.kind == KindLeaf && len(op.outs) != 1 {
			errs = append(errs, fmt.Errorf("leaf %s must have exactly one outgoing edge, has %d", op.name, len(op.outs)))
		}
	}
	// Each pair's source edges must reach the sink: directly, through leaf
	// chains (which preserve the instance frame), or through nested
	// split–merge pairs (the frame is buried by the nested split and
	// resurfaces at the nested merge's output).
	for _, p := range g.pairs {
		for _, e := range p.source.outs {
			if e.pair != p {
				continue
			}
			if !g.tokenReaches(e.to, p.sink, make(map[int]bool)) {
				errs = append(errs, fmt.Errorf("%s: edge to %s does not reach sink %s", p, e.to.name, p.sink.name))
			}
		}
	}
	// Acyclicity over edges.
	if err := g.checkAcyclic(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// tokenReaches reports whether an object whose top instance frame belongs
// to a pair with the given sink can reach that sink starting at op:
//   - leaves forward the frame unchanged;
//   - a split buries the frame, which resurfaces at the outputs of the
//     merges paired with that split (recursively through streams);
//   - any other sink operation would be a frame mismatch (dead end).
func (g *Graph) tokenReaches(op, sink *Op, seen map[int]bool) bool {
	if op == sink {
		return true
	}
	if seen[op.id] {
		return false
	}
	seen[op.id] = true
	switch op.kind {
	case KindLeaf:
		for _, e := range op.outs {
			if g.tokenReaches(e.to, sink, seen) {
				return true
			}
		}
	case KindSplit:
		for _, next := range g.continuations(op) {
			if g.tokenReaches(next, sink, seen) {
				return true
			}
		}
	}
	return false
}

// continuations returns the operations at which the parent token of an
// object entering source op resurfaces: the output targets of the merges
// paired with it, recursing through paired streams.
func (g *Graph) continuations(source *Op) []*Op {
	var out []*Op
	for _, p := range g.pairs {
		if p.source != source {
			continue
		}
		switch p.sink.kind {
		case KindMerge:
			for _, e := range p.sink.outs {
				out = append(out, e.to)
			}
		case KindStream:
			out = append(out, g.continuations(p.sink)...)
		}
	}
	return out
}

func (g *Graph) checkAcyclic() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.ops))
	var visit func(op *Op) error
	visit = func(op *Op) error {
		color[op.id] = gray
		for _, e := range op.outs {
			switch color[e.to.id] {
			case gray:
				return fmt.Errorf("flow graph cycle through %s→%s", op.name, e.to.name)
			case white:
				if err := visit(e.to); err != nil {
					return err
				}
			}
		}
		color[op.id] = black
		return nil
	}
	for _, op := range g.ops {
		if color[op.id] == white {
			if err := visit(op); err != nil {
				return err
			}
		}
	}
	return nil
}
