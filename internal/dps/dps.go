// Package dps models the Dynamic Parallel Schedules framework (paper §2):
// parallel applications described as directed acyclic flow graphs of
// split, merge, stream and leaf operations exchanging strongly typed data
// objects, executed by DPS threads grouped into collections that are
// deployed — and re-deployed — onto compute nodes at runtime.
//
// This package holds the *model*: graph structure, operation handlers,
// routing functions, thread collections and validation. Execution lives in
// internal/core (simulated platforms) and internal/parallel (real
// concurrent runtime over TCP); both directly execute the handlers and the
// routing functions registered here, which is what the paper calls direct
// execution of the application and DPS runtime code.
//
// # Instances and pairing
//
// Every data object entering a split operation starts a new instance of
// the corresponding split–merge pair: the objects posted by the split
// (and their 1:1 descendants through leaf operations) carry an instance
// frame that the paired merge pops when aggregating. A stream operation is
// a merge fused with a split: it absorbs the objects of an upstream
// instance and may immediately post objects that open instances of its
// own downstream pairs. Flow control (paper §2) limits the number of data
// objects in circulation inside one pair instance through a credit window.
package dps

import (
	"fmt"

	"dpsim/internal/eventq"
	"dpsim/internal/serial"
)

// DataObject is the unit of information moving along flow-graph edges.
// Its one method, Wire, states the object's wire layout on a
// serial.Stream: the simulated platforms count it (the paper's modified
// serializer that avoids memory copies), and the real runtime encodes it
// and decodes it on the receiving node.
type DataObject interface {
	serial.Object
}

// SizeOf returns the wire size of a data object in bytes.
func SizeOf(obj DataObject) int64 { return serial.SizeOf(obj) }

// Kind enumerates the fundamental DPS operation types.
type Kind int

const (
	// KindLeaf transforms exactly one input object into one output object.
	KindLeaf Kind = iota
	// KindSplit divides one input object into any number of sub-objects,
	// opening a new instance of its split–merge pair.
	KindSplit
	// KindMerge aggregates all objects of one pair instance into a single
	// result object.
	KindMerge
	// KindStream is a merge fused with a split: it may post new objects
	// for each group of absorbed inputs instead of waiting for all of
	// them (paper §2, "refining the synchronization granularity").
	KindStream
)

func (k Kind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindSplit:
		return "split"
	case KindMerge:
		return "merge"
	case KindStream:
		return "stream"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Store is the per-DPS-thread local state visible to the operations that
// execute on that thread (the paper's thread state, e.g. locally stored
// column blocks).
type Store map[string]any

// Ctx is the interface through which operation handlers interact with the
// runtime. It is implemented by the simulation engine and by the real
// parallel runtime; handlers must not retain it beyond the invocation.
type Ctx interface {
	// Post sends obj along the operation's single outgoing edge. It is a
	// convenience for PostTo(0, obj).
	Post(obj DataObject)
	// PostTo sends obj along the i-th outgoing edge of the operation.
	// Posting terminates the current atomic step: time charged so far is
	// accounted and the transfer is initiated when the step completes.
	PostTo(edge int, obj DataObject)
	// Compute performs (or models) a computation. key identifies the
	// computation class for calibration tables; work is the analytic
	// duration estimate at reference node power; f executes the real
	// kernel and may be nil when there is nothing to run. The simulation
	// engine's duration source decides whether f runs and what the
	// computation costs; the real runtime always runs f.
	Compute(key string, work eventq.Duration, f func())
	// Thread returns the index of the executing DPS thread within the
	// operation's collection.
	Thread() int
	// Width returns the current width of the operation's collection.
	Width() int
	// Node returns the compute node currently hosting the thread.
	Node() int
	// Now returns the current virtual time.
	Now() eventq.Time
	// NoAlloc reports whether the application should avoid allocating
	// data payloads (paper §7, PDEXEC NOALLOC).
	NoAlloc() bool
	// Store returns the executing thread's local state.
	Store() Store
	// Phase records a named phase boundary at the current virtual time
	// (e.g. the start of an LU iteration); the metrics package slices
	// per-phase efficiency from these marks.
	Phase(name string)
}

// LeafFunc processes one input object and must post exactly one output
// object (DPS leaf semantics; the 1:1 discipline is what lets the paired
// merge count arrivals).
type LeafFunc func(ctx Ctx, in DataObject)

// SplitFunc divides the input object, posting any number of sub-objects.
type SplitFunc func(ctx Ctx, in DataObject)

// MergeState is the per-instance state of a merge or stream operation.
// Absorb is called once per arriving object; Finish is called after the
// last object of the instance has been absorbed. Stream states may Post
// from Absorb; merge states usually post their aggregate from Finish.
type MergeState interface {
	Absorb(ctx Ctx, in DataObject)
	Finish(ctx Ctx)
}

// NewStateFunc creates the state for a newly opened merge/stream instance.
// first is the object whose arrival opened the instance.
type NewStateFunc func(first DataObject) MergeState

// Routing selects the destination thread for a posted data object.
type Routing struct {
	// Obj is the object being routed.
	Obj DataObject
	// Width is the current width of the destination collection.
	Width int
	// SrcThread is the collection-local index of the posting thread.
	SrcThread int
	// Seq is the zero-based sequence number of this post within the
	// current pair instance, enabling round-robin distributions.
	Seq int
}

// RouteFunc maps a posted object to a destination thread index in
// [0, Width). The routing functions are evaluated at runtime, directly
// executing application code (paper §2).
type RouteFunc func(r Routing) int

// RoundRobin distributes objects cyclically over the destination
// collection, the "evenly distributed on all threads" routing of the LU
// multiplication requests (paper §5).
func RoundRobin(r Routing) int { return r.Seq % r.Width }

// InstanceRouteFunc fixes the thread (within the sink operation's
// collection) on which a pair instance aggregates. first is the first
// object posted into the instance; width is the sink collection's current
// width. All objects of an instance converge to this thread.
type InstanceRouteFunc func(first DataObject, width int) int

// FirstThread routes every instance to thread 0 of the sink collection.
func FirstThread(DataObject, int) int { return 0 }
