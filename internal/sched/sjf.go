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

	waiting []int
	work    []float64 // remaining serial work, by Active index
}

// Name implements Scheduler.
func (*SJFMoldable) Name() string { return "sjf-moldable" }

// Allocate implements Scheduler.
func (m *SJFMoldable) Allocate(st State, out []int) {
	minEff := m.MinEfficiency
	if minEff <= 0 {
		minEff = 0.5
	}
	free := st.Nodes
	m.waiting = m.waiting[:0]
	m.work = grow(m.work, len(st.Active))
	for i := range st.Active {
		if a := st.Active[i].Alloc; a > 0 {
			out[i] = a
			free -= a
		} else {
			m.waiting = append(m.waiting, i)
			m.work[i] = st.Active[i].RemainingWork()
		}
	}
	// Shortest remaining serial work first; ties FCFS, then by ID, so
	// the order is total and deterministic. The keys are computed once
	// per job above, not per comparison: a key walks the job's phases.
	slices.SortFunc(m.waiting, func(a, b int) int {
		ja, jb := st.Active[a], st.Active[b]
		wa, wb := m.work[a], m.work[b]
		switch {
		case wa < wb:
			return -1
		case wa > wb:
			return 1
		case ja.Job.Arrival < jb.Job.Arrival:
			return -1
		case ja.Job.Arrival > jb.Job.Arrival:
			return 1
		case ja.Job.ID < jb.Job.ID:
			return -1
		case ja.Job.ID > jb.Job.ID:
			return 1
		}
		return 0
	})
	for _, i := range m.waiting {
		if want := moldWidth(st.Active[i], minEff); want <= free {
			out[i] = want
			free -= want
		}
	}
}
