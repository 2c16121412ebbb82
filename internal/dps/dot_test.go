package dps

import (
	"strings"
	"testing"
)

func buildDotGraph() *Graph {
	coll := NewCollection("workers", 4, 4)
	master := NewCollection("master", 1, 4)
	g := NewGraph("demo")
	split := g.Split("distribute", master, func(Ctx, DataObject) {})
	leaf := g.Leaf("compute", coll, func(Ctx, DataObject) {})
	stream := g.Stream("relay", master, newNullState)
	leaf2 := g.Leaf("post", coll, func(Ctx, DataObject) {})
	merge := g.Merge("collect", master, newNullState)
	g.Connect(split, leaf, RoundRobin)
	g.Connect(leaf, stream, nil)
	e := g.Connect(stream, leaf2, RoundRobin)
	g.Connect(leaf2, merge, nil)
	g.PairOps(split, stream, nil)
	p := g.PairOps(stream, merge, nil, e)
	p.SetWindow(4)
	return g
}

func TestDotOutput(t *testing.T) {
	g := buildDotGraph()
	dot := g.Dot()
	for _, want := range []string{
		`digraph "demo"`,
		"invtriangle", // split
		"triangle",    // merge
		"diamond",     // stream
		`"distribute"`,
		"window 4",
		"subgraph cluster_",
		"workers (width 4)",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot output missing %q:\n%s", want, dot)
		}
	}
	// Every edge appears.
	if strings.Count(dot, "->") != 4 {
		t.Fatalf("dot has %d edges, want 4:\n%s", strings.Count(dot, "->"), dot)
	}
}
