package cluster

import (
	"dpsim/internal/appmodel"
	"dpsim/internal/lu"
	"dpsim/internal/rng"
)

// LUProfile derives a job profile from the LU application's per-iteration
// serial work (paper Fig. 11's baseline), with a communication factor that
// grows as iterations shrink — matching the measured efficiency decay.
// The factor is appmodel.LUPhase's, the one definition of it.
// (Allocation bounds are a property of the Job, not the profile: set
// Job.MaxNodes on the job carrying these phases.)
func LUProfile(n, r int, costs lu.CostModel) []Phase {
	blocks := n / r
	phases := make([]Phase, blocks)
	for k := range phases {
		phases[k] = Phase{Work: lu.SerialWork(costs, n, r, k).Seconds(), Comm: appmodel.LUPhase(blocks, k).C}
	}
	return phases
}

// SyntheticProfile builds a uniform job for workload generators.
func SyntheticProfile(phases int, totalWork, comm float64) []Phase {
	out := make([]Phase, phases)
	for i := range out {
		out[i] = Phase{Work: totalWork / float64(phases), Comm: comm}
	}
	return out
}

// PoissonWorkload generates a reproducible stream of LU-profile jobs with
// exponential inter-arrival times.
func PoissonWorkload(jobs, nodes int, meanInterarrival float64, seed uint64) []*Job {
	src := rng.New(seed)
	costs := lu.DefaultCostModel()
	sizes := []struct{ n, r int }{
		{1296, 162}, {1296, 108}, {648, 81}, {2592, 324},
	}
	var out []*Job
	t := 0.0
	for i := 0; i < jobs; i++ {
		t += src.Exp(meanInterarrival)
		sz := sizes[src.Intn(len(sizes))]
		maxN := 2 + src.Intn(nodes)
		out = append(out, &Job{
			ID:       i,
			Arrival:  t,
			Phases:   LUProfile(sz.n, sz.r, costs),
			MaxNodes: maxN,
		})
	}
	return out
}
