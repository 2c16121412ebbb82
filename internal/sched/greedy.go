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
	// heap is a binary max-heap of the jobs whose marginal gain at their
	// working allocation is positive, keyed (gain desc, index asc): its
	// root is exactly the job a linear scan for the first largest gain
	// would pick. A job's gain only changes when it is granted a node, so
	// each grant recomputes one entry (bit-identical — the cached values
	// are the same floats the recomputation would produce).
	heap []gainEntry
}

// gainEntry is one job's marginal gain, by its index in State.Active.
type gainEntry struct {
	gain float64
	i    int
}

// before is the heap order: larger gain first, lower index on ties.
func (e gainEntry) before(f gainEntry) bool {
	return e.gain > f.gain || e.gain == f.gain && e.i < f.i
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
		return m.Rate(ph.Work, alloc+1) - m.Rate(ph.Work, alloc)
	}
	// Each rate is a product (p·eff): rounding it explicitly keeps an
	// arm64 build from fusing one into the difference.
	return float64(ph.Rate(alloc+1)) - float64(ph.Rate(alloc))
}

// Allocate implements Scheduler. The out buffer doubles as the working
// allocation array (it arrives zeroed); ties in marginal gain resolve to
// the lowest index, i.e. the lowest job ID, as Active is ID-sorted. Each
// node pops the heap's root and re-inserts it at its next gain, so a pass
// costs O((active + nodes)·log active) rather than a scan per node.
func (g *EfficiencyGreedy) Allocate(st State, out []int) {
	g.heap = grow(g.heap, len(st.Active))[:0]
	for i := range st.Active {
		if gain := marginalGain(&st.Active[i], 0); gain > 0 { // a zero, negative or NaN gain is never picked
			g.heap = append(g.heap, gainEntry{gain, i})
		}
	}
	for k := len(g.heap)/2 - 1; k >= 0; k-- {
		g.down(k)
	}
	for node := 0; node < st.Nodes && len(g.heap) > 0; node++ {
		top := &g.heap[0]
		out[top.i]++
		if top.gain = marginalGain(&st.Active[top.i], out[top.i]); !(top.gain > 0) {
			last := len(g.heap) - 1
			g.heap[0] = g.heap[last]
			g.heap = g.heap[:last]
		}
		g.down(0)
	}
}

// down restores the heap order below position k.
func (g *EfficiencyGreedy) down(k int) {
	h := g.heap
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}
