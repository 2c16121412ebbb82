package sched

import (
	"fmt"
	"math"
	"slices"
)

func init() {
	Register("malleable-hysteresis", func(p Params) (Scheduler, error) {
		if err := p.Check("sched", "malleable-hysteresis", "epoch_s", "min_delta"); err != nil {
			return nil, err
		}
		m := NewMalleableHysteresis(p.Float("epoch_s", 30), p.Float("min_delta", 2))
		if m.EpochS < 0 || m.MinDelta < 1 {
			return nil, fmt.Errorf("sched: malleable-hysteresis: epoch_s must be >= 0 and min_delta >= 1")
		}
		return m, nil
	})
}

// MalleableHysteresis is equipartition with a reallocation throttle: a
// running job's allocation moves toward its equipartition target only
// when the move is at least MinDelta nodes AND the job's last resize is
// at least EpochS seconds old. The throttle bounds reallocation churn —
// and with it the redistribution pauses the reconfiguration-cost model
// charges — at the price of transiently uneven shares. Admissions
// (waiting → running) and capacity pressure are never throttled: a job
// must start as soon as its target says so, and the policy must always
// fit inside the usable pool.
//
// The policy is stateful (per-job resize clocks plus reusable scratch
// buffers): construct a fresh instance per simulation. A job's clock is
// kept while its ID stays active from one pass to the next: a job that
// departs and a later one reusing its ID start unthrottled.
type MalleableHysteresis struct {
	// EpochS is the minimum time between two resizes of one job.
	EpochS float64
	// MinDelta is the minimum allocation change worth acting on.
	MinDelta int

	// clocks holds the last resize of each job active at the last pass,
	// ID-sorted and so aligned with that pass's Active (-Inf: never
	// resized); spare is the buffer the next pass rebuilds it into.
	clocks, spare []resizeClock
	target        []int
	order         []int
}

type resizeClock struct {
	id int
	at float64
}

// NewMalleableHysteresis constructs the policy; minDelta is rounded to
// the nearest node.
func NewMalleableHysteresis(epochS, minDelta float64) *MalleableHysteresis {
	return &MalleableHysteresis{EpochS: epochS, MinDelta: int(math.Round(minDelta))}
}

// Name implements Scheduler.
func (*MalleableHysteresis) Name() string { return "malleable-hysteresis" }

// Allocate implements Scheduler.
func (m *MalleableHysteresis) Allocate(st State, out []int) {
	if len(st.Active) == 0 {
		m.clocks = m.clocks[:0]
		return
	}
	m.target = grow(m.target, len(st.Active))
	for i := range m.target {
		m.target[i] = 0
	}
	Equipartition{}.Allocate(st, m.target)
	m.alignClocks(st.Active)
	total := 0
	for i := range st.Active {
		js := &st.Active[i]
		cur, want := js.Alloc, m.target[i]
		a := cur
		switch {
		case cur == want:
			// nothing to do; the clock only ticks on actual resizes.
		case cur == 0:
			// Admission: never delay a waiting job's first nodes.
			a = want
			m.clocks[i].at = st.Now
		case abs(want-cur) < m.MinDelta:
			// Too small a move to pay a redistribution for.
		case st.Now-m.clocks[i].at < m.EpochS:
			// Within the epoch: hold.
		default:
			a = want
			m.clocks[i].at = st.Now
		}
		out[i] = a
		total += a
	}
	// Capacity repair: held allocations can exceed a shrunken pool (or
	// crowd out an admission). Pressure overrides hysteresis — shrink the
	// jobs holding most above target, largest overshoot first (ties:
	// lower ID, i.e. lower index), until the allocation fits. Targets
	// always sum within Nodes, so one pass suffices.
	if total > st.Nodes {
		m.order = grow(m.order, len(st.Active))
		for i := range m.order {
			m.order[i] = i
		}
		slices.SortStableFunc(m.order, func(a, b int) int {
			oa := out[a] - m.target[a]
			ob := out[b] - m.target[b]
			switch {
			case oa > ob:
				return -1
			case oa < ob:
				return 1
			}
			return 0
		})
		for _, i := range m.order {
			if total <= st.Nodes {
				break
			}
			give := out[i] - m.target[i]
			if give <= 0 {
				continue
			}
			if excess := total - st.Nodes; give > excess {
				give = excess
			}
			out[i] -= give
			total -= give
			m.clocks[i].at = st.Now
		}
	}
}

// alignClocks rebuilds the clocks aligned with active in one merge walk
// over both ID-sorted lists: a job keeps its clock, a new one has none,
// and departed jobs drop out.
func (m *MalleableHysteresis) alignClocks(active []JobState) {
	next := m.spare[:0]
	k := 0
	for i := range active {
		id := active[i].Job.ID
		for k < len(m.clocks) && m.clocks[k].id < id {
			k++
		}
		c := resizeClock{id: id, at: math.Inf(-1)}
		if k < len(m.clocks) && m.clocks[k].id == id {
			c.at = m.clocks[k].at
		}
		next = append(next, c)
	}
	m.clocks, m.spare = next, m.clocks
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
