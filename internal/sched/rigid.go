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
	queue []queued
}

// Name implements Scheduler.
func (*Rigid) Name() string { return "rigid-fcfs" }

// Allocate implements Scheduler. Running jobs keep their nodes; waiting
// jobs are admitted first-fit in FCFS order into whatever remains (a
// running job admitted by backfilling must never be evicted by an older
// waiter). Free nodes only fall during the pass, so only the waiting
// jobs that fit what the running jobs leave are queued and sorted.
func (r *Rigid) Allocate(st State, out []int) {
	free := placeRunning(st, out)
	r.queue = r.queue[:0]
	for i := range st.Active {
		if js := &st.Active[i]; js.Alloc == 0 && js.Job.MaxNodes <= free {
			r.queue = append(r.queue, queued{i: i, width: js.Job.MaxNodes})
		}
	}
	sortFCFS(st, r.queue)
	admit(r.queue, out, free)
}

// queued is a waiting job one pass may admit: its State.Active index,
// the width it would be granted and, for sjf-moldable, its remaining
// serial work (the sort key).
type queued struct {
	i, width int
	work     float64
}

// placeRunning copies every running job's allocation into out and
// returns the nodes left free for the waiting jobs.
func placeRunning(st State, out []int) int {
	free := st.Nodes
	for i := range st.Active {
		if a := st.Active[i].Alloc; a > 0 {
			out[i] = a
			free -= a
		}
	}
	return free
}

// admit grants the queued jobs their widths first-fit, in queue order.
func admit(q []queued, out []int, free int) {
	for _, c := range q {
		if c.width <= free {
			out[c.i] = c.width
			free -= c.width
		}
	}
}

// sortFCFS orders q by arrival then ID — the shared admission order of
// the FCFS-family policies.
func sortFCFS(st State, q []queued) {
	slices.SortFunc(q, func(a, b queued) int { return cmpFCFS(st.Active[a.i].Job, st.Active[b.i].Job) })
}

// cmpFCFS compares two jobs by arrival then ID. (Arrival, ID) is a total
// order over distinct jobs, so sorting by it is deterministic.
func cmpFCFS(ja, jb *Job) int {
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
}
