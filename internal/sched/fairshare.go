package sched

import (
	"cmp"
	"math"
	"slices"
)

func init() {
	Register("fair-share", func(p Params) (Scheduler, error) {
		if err := p.Check("sched", "fair-share"); err != nil {
			return nil, err
		}
		return &FairShare{}, nil
	})
}

// FairShare is weighted equipartition: each active job is entitled to a
// share of the pool proportional to its Weight (default 1), apportioned
// by the largest-remainder method, capped at MaxNodes, with capped jobs'
// surplus redistributed to the rest. With uniform weights it behaves
// like Equipartition up to rounding order. The struct carries reusable
// apportionment scratch buffers: construct one instance per simulation.
type FairShare struct {
	frac  []float64
	order []int
}

// Name implements Scheduler.
func (*FairShare) Name() string { return "fair-share" }

// Allocate implements Scheduler. The out buffer doubles as the working
// allocation array; Active is ID-sorted, so index order is the ID order
// the apportionment ties break toward.
func (f *FairShare) Allocate(st State, out []int) {
	if len(st.Active) == 0 {
		return
	}
	var totalW float64
	for i := range st.Active {
		totalW += jobWeight(st.Active[i].Job)
	}
	// When Nodes·W overflows, every weight is scaled by 2⁻⁶⁰⁰: the largest
	// float64 becomes 2⁴²⁴, so Nodes·W is finite, and a power of two keeps
	// the ratios, hence the quotas Nodes·w/W, exact for any weight above
	// 2⁻⁴²² (still a normal float once scaled). Otherwise scale is 1 and
	// changes no bit.
	scale := 1.0
	if math.IsInf(float64(st.Nodes)*totalW, 0) {
		scale, totalW = 0x1p-600, 0
		for i := range st.Active {
			totalW += float64(jobWeight(st.Active[i].Job) * scale)
		}
	}
	// Largest-remainder apportionment of quota = Nodes·w/W, each share
	// capped at the job's MaxNodes. A weight-1 job's quota Nodes·1/W is
	// bitwise Nodes/W, so it and its floor are computed once for all of
	// them.
	f.frac = grow(f.frac, len(st.Active))
	f.order = grow(f.order, len(st.Active))
	unit := float64(st.Nodes) * scale / totalW
	unitFloor := int(math.Floor(unit))
	unitFrac := unit - float64(unitFloor)
	// Hand the rounding leftover to the largest fractional remainders
	// (ties: lower ID), then cycle any cap surplus over uncapped jobs.
	// (frac desc, index asc) is a total order, so an unstable sort yields
	// the stable permutation. The identity order, built alongside, is
	// that permutation when the remainders never rise with the index
	// (every pass with uniform weights and no binding cap); checking that
	// as they are computed spares the sort, and a NaN remainder (an
	// infinite weight) still takes it.
	used := 0
	sorted := true
	for i := range st.Active {
		js := &st.Active[i]
		a, frac := unitFloor, unitFrac
		if w := jobWeight(js.Job); w != 1 {
			quota := float64(st.Nodes) * (w * scale) / totalW
			a = int(math.Floor(quota))
			frac = quota - float64(a)
		}
		if a > js.Job.MaxNodes {
			a, frac = js.Job.MaxNodes, 0
		}
		out[i], f.frac[i], f.order[i] = a, frac, i
		used += a
		if i > 0 && !(f.frac[i-1] >= frac) {
			sorted = false
		}
	}
	if !sorted {
		slices.SortFunc(f.order, func(a, b int) int {
			switch {
			case f.frac[a] > f.frac[b]:
				return -1
			case f.frac[a] < f.frac[b]:
				return 1
			}
			return cmp.Compare(a, b)
		})
	}
	for _, i := range f.order {
		if used >= st.Nodes {
			break
		}
		if out[i] < st.Active[i].Job.MaxNodes && f.frac[i] > 0 {
			out[i]++
			used++
		}
	}
	for used < st.Nodes {
		grew := false
		for i := range st.Active {
			if used >= st.Nodes {
				break
			}
			if out[i] < st.Active[i].Job.MaxNodes {
				out[i]++
				used++
				grew = true
			}
		}
		if !grew {
			break // every job at its cap: the surplus idles
		}
	}
}

// jobWeight is the job's fair-share weight, defaulting to 1 for jobs
// that never set one (including non-positive values).
func jobWeight(j *Job) float64 {
	if j.Weight <= 0 {
		return 1
	}
	return j.Weight
}
