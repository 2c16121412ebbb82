package sched

import "slices"

func init() {
	Register("sjf-moldable", func(p Params) (Scheduler, error) {
		minEff, err := minEfficiencyParam("sjf-moldable", p)
		if err != nil {
			return nil, err
		}
		return &SJFMoldable{MinEfficiency: minEff}, nil
	})
}

// SJFMoldable admits waiting jobs shortest-serial-work-first, each at a
// moldable width chosen once at admission (the same efficiency-threshold
// width rule as Moldable) and held to completion. Trading FCFS fairness
// for mean response time: short jobs never queue behind long ones. The
// struct carries a reusable admission-order scratch buffer: construct
// one instance per simulation.
type SJFMoldable struct {
	// MinEfficiency is the lowest acceptable first-phase efficiency when
	// picking the start allocation (default 0.5).
	MinEfficiency float64

	queue []queued
}

// Name implements Scheduler.
func (*SJFMoldable) Name() string { return "sjf-moldable" }

// Allocate implements Scheduler.
func (m *SJFMoldable) Allocate(st State, out []int) {
	var free int
	m.queue, free = queueMold(st, out, m.MinEfficiency, m.queue)
	// Shortest remaining serial work first; ties FCFS, then by ID, so
	// the order is total and deterministic. The keys are computed once
	// per queued job here, not per comparison: a key walks the job's
	// phases.
	for k := range m.queue {
		m.queue[k].work = st.Active[m.queue[k].i].RemainingWork()
	}
	slices.SortFunc(m.queue, func(a, b queued) int {
		switch {
		case a.work < b.work:
			return -1
		case a.work > b.work:
			return 1
		}
		return cmpFCFS(st.Active[a.i].Job, st.Active[b.i].Job)
	})
	admit(m.queue, out, free)
}
