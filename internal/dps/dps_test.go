package dps

import (
	"strings"
	"testing"
	"testing/quick"

	"dpsim/internal/serial"
)

type obj struct{ n int }

func (o *obj) Wire(s serial.Stream) { o.n = int(s.I64(int64(o.n))) }

type nullState struct{}

func (nullState) Absorb(Ctx, DataObject) {}
func (nullState) Finish(Ctx)             {}

func newNullState(DataObject) MergeState { return nullState{} }

func TestSizeOf(t *testing.T) {
	if got := SizeOf(&obj{}); got != 8 {
		t.Fatalf("SizeOf = %d, want 8", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindLeaf: "leaf", KindSplit: "split", KindMerge: "merge", KindStream: "stream",
	} {
		if k.String() != want {
			t.Fatalf("Kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// --- Collection ---

func TestCollectionRoundRobinPlacement(t *testing.T) {
	c := NewCollection("w", 8, 4)
	for i := 0; i < 8; i++ {
		if c.Node(i) != i%4 {
			t.Fatalf("thread %d on node %d, want %d", i, c.Node(i), i%4)
		}
	}
	if len(c.Nodes()) != 4 {
		t.Fatalf("Nodes = %v", c.Nodes())
	}
}

func TestCollectionFewerThreadsThanNodes(t *testing.T) {
	c := NewCollection("w", 2, 8)
	nodes := c.Nodes()
	if len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestCollectionResizeShrink(t *testing.T) {
	c := NewCollection("w", 8, 8)
	c.Resize(4)
	if c.Width() != 4 {
		t.Fatalf("Width = %d", c.Width())
	}
	if got := len(c.Nodes()); got != 4 {
		t.Fatalf("allocated nodes after shrink = %d", got)
	}
}

func TestCollectionResizeGrow(t *testing.T) {
	c := NewCollection("w", 2, 2)
	c.Resize(6)
	if c.Width() != 6 {
		t.Fatalf("Width = %d", c.Width())
	}
	// Growth extends placement cyclically over the prior placement.
	for i := 0; i < 6; i++ {
		if c.Node(i) != i%2 {
			t.Fatalf("thread %d on node %d, want %d", i, c.Node(i), i%2)
		}
	}
}

func TestCollectionPlaceMigration(t *testing.T) {
	c := NewCollection("w", 4, 4)
	c.Place(3, 0)
	if c.Node(3) != 0 {
		t.Fatal("Place did not move thread")
	}
	if got := len(c.Nodes()); got != 3 {
		t.Fatalf("allocated nodes = %d, want 3", got)
	}
}

func TestCollectionPlaceAll(t *testing.T) {
	c := NewCollection("w", 8, 8)
	c.PlaceAll([]int{0, 1, 2, 3})
	for i := 0; i < 8; i++ {
		if c.Node(i) != i%4 {
			t.Fatalf("thread %d on node %d", i, c.Node(i))
		}
	}
}

func TestCollectionOnChange(t *testing.T) {
	c := NewCollection("w", 4, 4)
	calls := 0
	c.SetOnChange(func() { calls++ })
	c.Resize(2)
	c.Place(0, 1)
	c.Place(0, 1) // no-op: same node
	c.PlaceAll([]int{0})
	if calls != 3 {
		t.Fatalf("onChange fired %d times, want 3", calls)
	}
}

func TestCollectionNodesSorted(t *testing.T) {
	prop := func(widthRaw, nodesRaw uint8) bool {
		width := int(widthRaw%16) + 1
		nodes := int(nodesRaw%8) + 1
		c := NewCollection("w", width, nodes)
		ns := c.Nodes()
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				return false
			}
		}
		want := width
		if nodes < want {
			want = nodes
		}
		return len(ns) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionPanics(t *testing.T) {
	mustPanic(t, "zero width", func() { NewCollection("w", 0, 1) })
	c := NewCollection("w", 2, 2)
	mustPanic(t, "bad node index", func() { c.Node(5) })
	mustPanic(t, "bad place index", func() { c.Place(9, 0) })
	mustPanic(t, "negative node", func() { c.Place(0, -1) })
	mustPanic(t, "zero resize", func() { c.Resize(0) })
	mustPanic(t, "empty PlaceAll", func() { c.PlaceAll(nil) })
}

// --- Graph construction and validation ---

func buildValidGraph(t *testing.T) (*Graph, *Collection) {
	t.Helper()
	coll := NewCollection("c", 4, 4)
	g := NewGraph("g")
	split := g.Split("split", coll, func(Ctx, DataObject) {})
	leaf := g.Leaf("work", coll, func(Ctx, DataObject) {})
	merge := g.Merge("merge", coll, newNullState)
	g.Connect(split, leaf, RoundRobin)
	g.Connect(leaf, merge, nil)
	g.PairOps(split, merge, nil)
	return g, coll
}

func TestValidGraph(t *testing.T) {
	g, _ := buildValidGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	if len(g.Ops()) != 3 || len(g.Edges()) != 2 || len(g.Pairs()) != 1 {
		t.Fatal("graph counts wrong")
	}
}

func TestPairDefaults(t *testing.T) {
	g, _ := buildValidGraph(t)
	p := g.Pairs()[0]
	if p.Window() != 0 {
		t.Fatal("default window not 0")
	}
	p.SetWindow(5)
	if p.Window() != 5 {
		t.Fatal("SetWindow failed")
	}
	if inst, err := p.OpenInstance(&obj{}); err != nil || inst.SinkThread != 0 {
		t.Fatalf("default instance routing: %+v, %v; want thread 0", inst, err)
	}
	if p.Source().Name() != "split" || p.Sink().Name() != "merge" {
		t.Fatal("pair endpoints wrong")
	}
}

func TestEdgeIntoMergeMustBeNilRouted(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	merge := g.Merge("m", coll, newNullState)
	mustPanic(t, "routed edge into merge", func() {
		g.Connect(split, merge, RoundRobin)
	})
}

func TestEdgeIntoLeafNeedsRouting(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	leaf := g.Leaf("l", coll, func(Ctx, DataObject) {})
	mustPanic(t, "nil-routed edge into leaf", func() {
		g.Connect(split, leaf, nil)
	})
}

func TestUnpairedSplitEdgeRejected(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	leaf := g.Leaf("l", coll, func(Ctx, DataObject) {})
	merge := g.Merge("m", coll, newNullState)
	g.Connect(split, leaf, RoundRobin)
	g.Connect(leaf, merge, nil)
	// no PairOps call
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "declared pair") {
		t.Fatalf("unpaired split accepted: %v", err)
	}
}

func TestLeafWithTwoOutEdgesRejected(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	leaf := g.Leaf("l", coll, func(Ctx, DataObject) {})
	m1 := g.Merge("m1", coll, newNullState)
	m2 := g.Merge("m2", coll, newNullState)
	g.Connect(split, leaf, RoundRobin)
	g.Connect(leaf, m1, nil)
	g.Connect(leaf, m2, nil)
	g.PairOps(split, m1, nil)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "exactly one outgoing edge") {
		t.Fatalf("two-output leaf accepted: %v", err)
	}
}

func TestPairSinkUnreachableRejected(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	leaf := g.Leaf("l", coll, func(Ctx, DataObject) {})
	m1 := g.Merge("m1", coll, newNullState)
	m2 := g.Merge("m2", coll, newNullState)
	g.Connect(split, leaf, RoundRobin)
	g.Connect(leaf, m1, nil)
	_ = m2
	g.PairOps(split, m2, nil) // wrong sink: leaf path goes to m1
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "does not reach sink") {
		t.Fatalf("unreachable pair sink accepted: %v", err)
	}
}

func TestCycleRejected(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	l1 := g.Leaf("l1", coll, func(Ctx, DataObject) {})
	l2 := g.Leaf("l2", coll, func(Ctx, DataObject) {})
	g.Connect(l1, l2, RoundRobin)
	g.Connect(l2, l1, RoundRobin)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle accepted: %v", err)
	}
}

func TestMergeOutEdgeCannotOpenPair(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	merge := g.Merge("m", coll, newNullState)
	m2 := g.Merge("m2", coll, newNullState)
	g.Connect(merge, m2, nil)
	mustPanic(t, "merge as pair source", func() {
		g.PairOps(merge, m2, nil)
	})
}

func TestStreamCanSourceMultiplePairs(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	stream := g.Stream("st", coll, newNullState)
	l1 := g.Leaf("l1", coll, func(Ctx, DataObject) {})
	l2 := g.Leaf("l2", coll, func(Ctx, DataObject) {})
	m1 := g.Merge("m1", coll, newNullState)
	m2 := g.Merge("m2", coll, newNullState)
	g.Connect(split, stream, nil)
	e1 := g.Connect(stream, l1, RoundRobin)
	e2 := g.Connect(stream, l2, RoundRobin)
	g.Connect(l1, m1, nil)
	g.Connect(l2, m2, nil)
	g.PairOps(split, stream, nil)
	g.PairOps(stream, m1, nil, e1)
	g.PairOps(stream, m2, nil, e2)
	if err := g.Validate(); err != nil {
		t.Fatalf("stream with two output pairs rejected: %v", err)
	}
}

func TestEdgeCannotJoinTwoPairs(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g := NewGraph("g")
	split := g.Split("s", coll, func(Ctx, DataObject) {})
	merge := g.Merge("m", coll, newNullState)
	g.Connect(split, merge, nil)
	g.PairOps(split, merge, nil)
	mustPanic(t, "double pair", func() { g.PairOps(split, merge, nil) })
}

func TestConnectAcrossGraphsPanics(t *testing.T) {
	coll := NewCollection("c", 2, 2)
	g1 := NewGraph("g1")
	g2 := NewGraph("g2")
	s := g1.Split("s", coll, func(Ctx, DataObject) {})
	l := g2.Leaf("l", coll, func(Ctx, DataObject) {})
	mustPanic(t, "cross-graph connect", func() { g1.Connect(s, l, RoundRobin) })
}

func TestRoundRobinRouting(t *testing.T) {
	for seq := 0; seq < 10; seq++ {
		got := RoundRobin(Routing{Width: 4, Seq: seq})
		if got != seq%4 {
			t.Fatalf("RoundRobin(seq=%d) = %d", seq, got)
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
