package sched

import "slices"

func init() {
	Register("rigid-fcfs", func(p Params) (Scheduler, error) {
		if err := p.Check("sched", "rigid-fcfs"); err != nil {
			return nil, err
		}
		return &Rigid{}, nil
	})
}

// Rigid allocates each job its MaxNodes, holding until completion (the
// conventional space-sharing baseline). Waiting jobs are admitted
// first-fit in FCFS order: a job too wide for the free nodes does not
// block later, narrower jobs. The struct carries a reusable
// admission-order scratch buffer: construct one instance per simulation.
type Rigid struct {
	waiting []int
}

// Name implements Scheduler.
func (*Rigid) Name() string { return "rigid-fcfs" }

// Allocate implements Scheduler. Running jobs keep their nodes; waiting
// jobs are admitted first-fit in FCFS order into whatever remains (a
// running job admitted by backfilling must never be evicted by an older
// waiter).
func (r *Rigid) Allocate(st State, out []int) {
	free := st.Nodes
	for i := range st.Active {
		if a := st.Active[i].Alloc; a > 0 {
			out[i] = a
			free -= a
		}
	}
	r.waiting = appendWaitingFCFS(st, r.waiting)
	for _, i := range r.waiting {
		if want := st.Active[i].Job.MaxNodes; want <= free {
			out[i] = want
			free -= want
		}
	}
}

// appendWaitingFCFS fills buf (reusing its capacity) with the indices of
// the jobs holding no allocation, ordered by arrival then ID — the
// shared admission order of the FCFS-family policies. (Arrival, ID) is a
// total order over distinct jobs, so the sort is deterministic.
func appendWaitingFCFS(st State, buf []int) []int {
	buf = buf[:0]
	for i := range st.Active {
		if st.Active[i].Alloc == 0 {
			buf = append(buf, i)
		}
	}
	slices.SortFunc(buf, func(a, b int) int {
		ja, jb := st.Active[a].Job, st.Active[b].Job
		switch {
		case ja.Arrival < jb.Arrival:
			return -1
		case ja.Arrival > jb.Arrival:
			return 1
		case ja.ID < jb.ID:
			return -1
		case ja.ID > jb.ID:
			return 1
		}
		return 0
	})
	return buf
}
