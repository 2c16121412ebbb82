package sched

import (
	"fmt"
	"sort"
)

func init() {
	Register("moldable", func(p Params) (Scheduler, error) {
		minEff, err := minEfficiencyParam("moldable", p)
		if err != nil {
			return nil, err
		}
		return &Moldable{MinEfficiency: minEff}, nil
	})
}

// minEfficiencyParam validates the shared min_efficiency parameter: an
// explicit value must be a usable threshold in (0, 1]; absence leaves
// the policy's documented default in force.
func minEfficiencyParam(policy string, p Params) (float64, error) {
	if err := p.Check("sched", policy, "min_efficiency"); err != nil {
		return 0, err
	}
	v, ok := p["min_efficiency"]
	if !ok {
		return 0, nil
	}
	if v <= 0 || v > 1 {
		return 0, fmt.Errorf("sched: %s: min_efficiency %g outside (0, 1]", policy, v)
	}
	return v, nil
}

// Moldable chooses each job's allocation once, at start, to maximize its
// own efficiency×speedup trade-off (the moldable-job model of Cirne &
// Berman, the paper's ref [5]); the allocation never changes afterwards.
// It captures what is possible *without* runtime reallocation. The
// struct carries a reusable admission-order scratch buffer: construct
// one instance per simulation.
type Moldable struct {
	// MinEfficiency is the lowest acceptable first-phase efficiency when
	// picking the start allocation (default 0.5).
	MinEfficiency float64

	queue []queued
}

// Name implements Scheduler.
func (*Moldable) Name() string { return "moldable" }

// Allocate implements Scheduler.
func (m *Moldable) Allocate(st State, out []int) {
	var free int
	m.queue, free = queueMold(st, out, m.MinEfficiency, m.queue)
	sortFCFS(st, m.queue)
	admit(m.queue, out, free)
}

// queueMold places the running jobs and returns q refilled with the
// waiting jobs whose moldable width fits the nodes they leave free (each
// width computed once), and that free count. Free nodes only fall during
// a pass, so no other waiting job can be admitted in it.
func queueMold(st State, out []int, minEff float64, q []queued) ([]queued, int) {
	if minEff <= 0 {
		minEff = 0.5
	}
	free := placeRunning(st, out)
	q = q[:0]
	if free < 1 { // moldWidth is at least 1
		return q, free
	}
	for i := range st.Active {
		if st.Active[i].Alloc > 0 {
			continue
		}
		if w := moldWidth(st.Active[i], minEff); w <= free {
			q = append(q, queued{i: i, width: w})
		}
	}
	return q, free
}

// moldWidth is the largest allocation whose first-phase efficiency stays
// above the threshold, bounded by the job's request. A model's efficiency
// need not fall monotonically in p, so the model branch walks every width.
func moldWidth(js JobState, minEff float64) int {
	ph := js.Job.Phases[0]
	if m := js.Job.Model; m != nil {
		want := 1
		for p := 2; p <= js.Job.MaxNodes; p++ {
			if modelEfficiency(m, ph.Work, p) >= minEff {
				want = p
			}
		}
		return want
	}
	// Every loader rejects a negative Comm, so efficiency is non-increasing
	// in p, in float arithmetic too (each step of 1/(1+Comm·(p-1)) is
	// monotone), and the widths that pass form a prefix of [2, MaxNodes]:
	// binary-search its end. A NaN Comm passes no width, as in a scan.
	return 1 + sort.Search(js.Job.MaxNodes-1, func(k int) bool { return !(ph.Efficiency(k+2) >= minEff) })
}
