package trace

import (
	"fmt"
	"sort"

	"dpsim/internal/core"
	"dpsim/internal/obs"
)

// AppendChromeTrace renders the recorded timing diagram into tr using
// the shared Chrome trace-event exporter (internal/obs): one process
// per simulated node, and per DPS thread one "compute" track for steps
// plus one "transfer" track for communication, so the LU diagram loads
// directly in Perfetto or chrome://tracing. Phase marks become
// process-scoped instants on node 0's process.
func (r *Recorder) AppendChromeTrace(tr *obs.Trace) {
	type laneID struct {
		node, thread int
		transfer     bool
	}
	lanes := make(map[laneID]bool)
	nodes := make(map[int]bool)
	for _, s := range r.spans {
		transfer := s.Kind == core.TraceTransfer
		pid := s.Node + 1
		// Interleave each thread's compute and transfer tracks so they
		// sort adjacently in the viewer.
		tid := 2 * s.Thread
		cat := "step"
		if transfer {
			tid++
			cat = "transfer"
		}
		var args map[string]any
		if s.Detail != "" {
			args = map[string]any{"detail": s.Detail}
		}
		tr.Complete(pid, tid, s.Op, cat, s.Start.Seconds(), s.End.Seconds(), args)
		lanes[laneID{node: s.Node, thread: s.Thread, transfer: transfer}] = true
		nodes[s.Node] = true
	}
	ids := make([]laneID, 0, len(lanes))
	for l := range lanes {
		ids = append(ids, l)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.node != b.node {
			return a.node < b.node
		}
		if a.thread != b.thread {
			return a.thread < b.thread
		}
		return !a.transfer && b.transfer
	})
	for _, l := range ids {
		kind := "compute"
		tid := 2 * l.thread
		if l.transfer {
			kind = "transfer"
			tid++
		}
		tr.NameThread(l.node+1, tid, fmt.Sprintf("thread %d %s", l.thread, kind))
	}
	nodeIDs := make([]int, 0, len(nodes))
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	for _, n := range nodeIDs {
		tr.NameProcess(n+1, fmt.Sprintf("node %d", n))
	}
	for _, p := range r.Phases() {
		tr.ProcessInstant(1, p.Name, "phase", p.Time.Seconds(), nil)
	}
}
