package dps

import (
	"fmt"
	"sort"
	"strings"
)

// Dot renders the flow graph in Graphviz dot syntax — the textual
// equivalent of the paper's flow-graph figures (Figs. 1, 5, 7). Operation
// shapes follow the paper's conventions: splits and merges as triangles
// (here: invtriangle/triangle), streams as diamonds, leaves as boxes.
// Pair edges are annotated with their flow-control window.
func (g *Graph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.name)
	b.WriteString("  rankdir=LR;\n  node [fontsize=10];\n")

	// Group operations by collection for visual clustering.
	byColl := make(map[*Collection][]*Op)
	var colls []*Collection
	for _, op := range g.ops {
		if _, ok := byColl[op.coll]; !ok {
			colls = append(colls, op.coll)
		}
		byColl[op.coll] = append(byColl[op.coll], op)
	}
	sort.Slice(colls, func(i, j int) bool { return colls[i].name < colls[j].name })
	for ci, coll := range colls {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"%s (width %d)\";\n", ci, coll.name, coll.Width())
		for _, op := range byColl[coll] {
			shape := "box"
			switch op.kind {
			case KindSplit:
				shape = "invtriangle"
			case KindMerge:
				shape = "triangle"
			case KindStream:
				shape = "diamond"
			}
			fmt.Fprintf(&b, "    op%d [label=%q shape=%s];\n", op.id, op.name, shape)
		}
		b.WriteString("  }\n")
	}
	for _, e := range g.edges {
		attrs := []string{}
		if e.pair != nil {
			label := fmt.Sprintf("pair %d", e.pair.id)
			if w := e.pair.Window(); w > 0 {
				label += fmt.Sprintf(" (window %d)", w)
			}
			attrs = append(attrs, fmt.Sprintf("label=%q", label))
		}
		attr := ""
		if len(attrs) > 0 {
			attr = " [" + strings.Join(attrs, " ") + "]"
		}
		fmt.Fprintf(&b, "  op%d -> op%d%s;\n", e.from.id, e.to.id, attr)
	}
	b.WriteString("}\n")
	return b.String()
}
