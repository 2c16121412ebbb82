package dps

import (
	"fmt"
	"sync/atomic"
)

// Collection is a named group of DPS threads onto which operations are
// mapped. The deployment of threads onto compute nodes happens at runtime
// and may change while the application executes: that is the dynamic node
// allocation the paper simulates. Width may shrink or grow at safe points
// (instance boundaries) and every thread's placement may be changed.
//
// Collections are shared mutable state between the application and the
// engine; the engines read them at routing time, so a resize performed
// inside an operation handler takes effect for all subsequently routed
// objects. The width is atomic because the real runtime routes on many
// goroutines while a handler resizes; placement is fixed there at start.
type Collection struct {
	name  string
	width atomic.Int32
	place []int // thread index -> node

	// history of (virtual-time, width, nodes) records appended by the
	// engine on every change, for dynamic-efficiency accounting.
	onChange func()
}

// NewCollection creates a collection of width threads placed round-robin
// over nodes.
func NewCollection(name string, width, nodes int) *Collection {
	if width <= 0 || nodes <= 0 {
		panic(fmt.Sprintf("dps: collection %q needs positive width (%d) and nodes (%d)", name, width, nodes))
	}
	c := &Collection{name: name}
	c.width.Store(int32(width))
	c.place = make([]int, width)
	for i := range c.place {
		c.place[i] = i % nodes
	}
	return c
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Width returns the number of active threads.
func (c *Collection) Width() int { return int(c.width.Load()) }

// Node returns the node hosting thread i.
func (c *Collection) Node(i int) int {
	if i < 0 || i >= len(c.place) {
		panic(fmt.Sprintf("dps: collection %q has no thread %d (width %d)", c.name, i, c.Width()))
	}
	return c.place[i]
}

// Place reassigns thread i to node (thread migration). Only safe at
// instance boundaries; the engines validate that no state is in flight for
// the affected threads when the application follows the safe-point
// discipline.
func (c *Collection) Place(i, node int) {
	if i < 0 || i >= len(c.place) {
		panic(fmt.Sprintf("dps: placing thread %d outside collection %q (width %d)", i, c.name, c.Width()))
	}
	if node < 0 {
		panic("dps: negative node")
	}
	if c.place[i] == node {
		return
	}
	c.place[i] = node
	c.changed()
}

// PlaceAll assigns every thread i to nodes[i%len(nodes)].
func (c *Collection) PlaceAll(nodes []int) {
	if len(nodes) == 0 {
		panic("dps: PlaceAll with no nodes")
	}
	for i := range c.Width() {
		c.place[i] = nodes[i%len(nodes)]
	}
	c.changed()
}

// Resize changes the number of active threads. Growing beyond the current
// placement extends it round-robin over the nodes used so far; shrinking
// deactivates the trailing threads (the paper's thread removal). The
// engine reports an error if a data object is later routed to a
// deactivated thread.
func (c *Collection) Resize(width int) {
	if width <= 0 {
		panic(fmt.Sprintf("dps: resize of %q to %d", c.name, width))
	}
	oldLen := len(c.place)
	for len(c.place) < width {
		c.place = append(c.place, c.place[len(c.place)%oldLen])
	}
	c.width.Store(int32(width))
	c.changed()
}

// Nodes returns the distinct nodes hosting the currently active threads,
// in ascending order. Its length is the number of allocated compute nodes,
// the p of the dynamic-efficiency metric.
func (c *Collection) Nodes() []int {
	seen := make(map[int]bool)
	var out []int
	for i := range c.Width() {
		if !seen[c.place[i]] {
			seen[c.place[i]] = true
			out = append(out, c.place[i])
		}
	}
	// insertion sort: the list is tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SetOnChange registers the engine callback fired after every placement or
// width change (used to record allocation history).
func (c *Collection) SetOnChange(fn func()) { c.onChange = fn }

func (c *Collection) changed() {
	if c.onChange != nil {
		c.onChange()
	}
}
