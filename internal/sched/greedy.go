package sched

func init() {
	Register("efficiency-greedy", func(p Params) (Scheduler, error) {
		if err := p.Check("sched", "efficiency-greedy"); err != nil {
			return nil, err
		}
		return &EfficiencyGreedy{}, nil
	})
}

// EfficiencyGreedy assigns nodes one at a time to the job with the largest
// marginal rate gain under its current phase's efficiency curve — the
// dynamic-efficiency-aware policy the paper's simulator enables.
type EfficiencyGreedy struct {
	// gains caches each job's marginal gain at its current working
	// allocation: a job's gain only changes when it is granted a node,
	// so the selection loop recomputes one entry per grant instead of
	// every entry (bit-identical — cached values are the same floats the
	// recomputation would produce).
	gains []float64
}

// Name implements Scheduler.
func (*EfficiencyGreedy) Name() string { return "efficiency-greedy" }

// marginalGain is the rate gained by job js's (alloc+1)-th node, zero
// once the job's request is filled (a zero gain is never selected, which
// is exactly the historical skip). The model branch sits at the call
// site so the comm formula inlines.
func marginalGain(js *JobState, alloc int) float64 {
	if alloc >= js.Job.MaxNodes {
		return 0
	}
	ph := js.Phase()
	if m := js.Job.Model; m != nil {
		return modelRate(m, ph.Work, alloc+1) - modelRate(m, ph.Work, alloc)
	}
	return ph.Rate(alloc+1) - ph.Rate(alloc)
}

// Allocate implements Scheduler. The out buffer doubles as the working
// allocation array (it arrives zeroed); ties in marginal gain resolve to
// the lowest index, i.e. the lowest job ID, as Active is ID-sorted.
func (g *EfficiencyGreedy) Allocate(st State, out []int) {
	n := len(st.Active)
	if n == 0 {
		return
	}
	g.gains = grow(g.gains, n)
	for i := range st.Active {
		g.gains[i] = marginalGain(&st.Active[i], 0)
	}
	for node := 0; node < st.Nodes; node++ {
		best, bestGain := -1, 0.0
		for i, gain := range g.gains {
			if gain > bestGain {
				bestGain, best = gain, i
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		g.gains[best] = marginalGain(&st.Active[best], out[best])
	}
}
