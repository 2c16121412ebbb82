package sched

import (
	"math"
	"slices"
)

func init() {
	Register("easy-backfill", func(p Params) (Scheduler, error) {
		if err := p.Check("sched", "easy-backfill"); err != nil {
			return nil, err
		}
		return &EasyBackfill{}, nil
	})
}

// EasyBackfill is FCFS over rigid-width requests with EASY (aggressive)
// backfilling: the queue head gets a reservation at the earliest instant
// enough nodes free up, and later jobs may jump it only if their
// estimated runtime does not delay that reservation. Runtime estimates
// come from the jobs' per-phase work profiles (EstRemaining) — exactly
// the prediction the DPS simulator supplies — so unlike user-supplied
// wall-time estimates they are never wildly pessimistic. The struct
// carries reusable queue and release scratch buffers: construct one
// instance per simulation.
type EasyBackfill struct {
	queue []queued
	rel   []release
}

// Name implements Scheduler.
func (*EasyBackfill) Name() string { return "easy-backfill" }

// Allocate implements Scheduler.
func (e *EasyBackfill) Allocate(st State, out []int) {
	free := st.Nodes
	// rel collects the estimated node hand-backs of every job holding
	// nodes in THIS allocation — the already-running at their snapshot
	// width, plus jobs admitted in this very pass at their granted width
	// (their snapshot Alloc is still 0). Reservations must see the
	// granted widths or same-pass admissions would look like zero-node
	// releases at +Inf and void the shadow.
	e.rel = e.rel[:0]
	for i := range st.Active {
		if a := st.Active[i].Alloc; a > 0 {
			out[i] = a
			free -= a
			e.rel = append(e.rel, release{at: st.Active[i].EstRemaining(a), nodes: a})
		}
	}
	// Free nodes only fall during the pass, so a waiting job wider than
	// free now can never be admitted, and only the FCFS-first of those
	// can become the blocked head: queue it and the jobs that fit.
	e.queue = e.queue[:0]
	misfit := -1
	for i := range st.Active {
		if js := &st.Active[i]; js.Alloc == 0 {
			if js.Job.MaxNodes <= free {
				e.queue = append(e.queue, queued{i: i, width: js.Job.MaxNodes})
			} else if misfit < 0 || cmpFCFS(js.Job, st.Active[misfit].Job) < 0 {
				misfit = i
			}
		}
	}
	if misfit >= 0 {
		e.queue = append(e.queue, queued{i: misfit, width: st.Active[misfit].Job.MaxNodes})
	}
	sortFCFS(st, e.queue)
	waiting := e.queue
	// Admit from the front while the head fits: plain FCFS.
	for len(waiting) > 0 {
		c := waiting[0]
		if c.width > free {
			break
		}
		out[c.i] = c.width
		free -= c.width
		e.rel = append(e.rel, release{at: st.Active[c.i].EstRemaining(c.width), nodes: c.width})
		waiting = waiting[1:]
	}
	if len(waiting) <= 1 {
		return
	}
	// The head is blocked: reserve for it. Its shadow time is the
	// earliest instant the estimated releases of the node-holding jobs
	// free enough nodes; extra is what remains beyond the head's request
	// at that instant (nodes a backfilled job may hold across the
	// shadow).
	shadow, extra := reservation(e.rel, free, waiting[0].width)
	for _, c := range waiting[1:] {
		if c.width > free {
			continue
		}
		if est := st.Active[c.i].EstRemaining(c.width); est <= shadow || c.width <= extra {
			out[c.i] = c.width
			free -= c.width
			if c.width <= extra {
				extra -= c.width
			}
		}
	}
}

// release is one node-holding job's estimated hand-back.
type release struct {
	at    float64
	nodes int
}

// reservation computes the head job's shadow time — how far from now the
// estimated releases free enough nodes for a request of want on top of
// free — and the node surplus at that instant. It sorts rel in place
// (stably, so equal release instants keep their running-then-admitted
// order). An unreachable request (capacity shrunk below the width)
// yields an infinite shadow: every fitting job may backfill.
func reservation(rel []release, free, want int) (shadow float64, extra int) {
	slices.SortStableFunc(rel, func(a, b release) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	avail := free
	for _, r := range rel {
		avail += r.nodes
		if avail >= want {
			return r.at, avail - want
		}
	}
	return math.Inf(1), math.MaxInt32
}
