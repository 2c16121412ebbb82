package sched

import (
	"slices"
	"testing"

	"dpsim/internal/appmodel"
	"dpsim/internal/rng"
)

// The superlinear loops the policies used to run, kept as references: the
// heap, the binary search and the unstable sort must reproduce them
// exactly, ties and float edge cases included.

// scanGreedy is EfficiencyGreedy's former per-node rescan of every gain.
func scanGreedy(st State, out []int) {
	gains := make([]float64, len(st.Active))
	for i := range st.Active {
		gains[i] = marginalGain(&st.Active[i], 0)
	}
	for node := 0; node < st.Nodes; node++ {
		best, bestGain := -1, 0.0
		for i, gain := range gains {
			if gain > bestGain {
				bestGain, best = gain, i
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		gains[best] = marginalGain(&st.Active[best], out[best])
	}
}

// scanMoldWidth is moldWidth's former linear walk over every width.
func scanMoldWidth(js JobState, minEff float64) int {
	ph := js.Job.Phases[0]
	want := 1
	for p := 2; p <= js.Job.MaxNodes; p++ {
		if ph.Efficiency(p) >= minEff {
			want = p
		}
	}
	return want
}

// stableFairOrder is FairShare's former stable sort by frac desc.
func stableFairOrder(frac []float64) []int {
	order := make([]int, len(frac))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case frac[a] > frac[b]:
			return -1
		case frac[a] < frac[b]:
			return 1
		}
		return 0
	})
	return order
}

// appendWaitingFCFS fills buf (reusing its capacity) with the indices of
// every job holding no allocation, ordered by arrival then ID — the
// admission list the FCFS-family policies used to sort in full.
func appendWaitingFCFS(st State, buf []int) []int {
	buf = buf[:0]
	for i := range st.Active {
		if st.Active[i].Alloc == 0 {
			buf = append(buf, i)
		}
	}
	slices.SortFunc(buf, func(a, b int) int { return cmpFCFS(st.Active[a].Job, st.Active[b].Job) })
	return buf
}

// fullSortRigid is Rigid's former pass over the whole sorted queue.
func fullSortRigid(st State, out []int) {
	free := placeRunning(st, out)
	for _, i := range appendWaitingFCFS(st, nil) {
		if want := st.Active[i].Job.MaxNodes; want <= free {
			out[i] = want
			free -= want
		}
	}
}

// fullSortMoldable is Moldable's former pass over the whole sorted queue.
func fullSortMoldable(st State, out []int) {
	free := placeRunning(st, out)
	for _, i := range appendWaitingFCFS(st, nil) {
		if want := moldWidth(st.Active[i], 0.5); want <= free {
			out[i] = want
			free -= want
		}
	}
}

// fullSortSJF is SJFMoldable's former pass: every waiting job keyed and
// sorted.
func fullSortSJF(st State, out []int) {
	free := placeRunning(st, out)
	var waiting []int
	work := make([]float64, len(st.Active))
	for i := range st.Active {
		if st.Active[i].Alloc == 0 {
			waiting = append(waiting, i)
			work[i] = st.Active[i].RemainingWork()
		}
	}
	slices.SortFunc(waiting, func(a, b int) int {
		switch {
		case work[a] < work[b]:
			return -1
		case work[a] > work[b]:
			return 1
		}
		return cmpFCFS(st.Active[a].Job, st.Active[b].Job)
	})
	for _, i := range waiting {
		if want := moldWidth(st.Active[i], 0.5); want <= free {
			out[i] = want
			free -= want
		}
	}
}

// fullSortEasy is EasyBackfill's former pass over the whole sorted queue.
func fullSortEasy(st State, out []int) {
	free := st.Nodes
	var rel []release
	for i := range st.Active {
		if a := st.Active[i].Alloc; a > 0 {
			out[i] = a
			free -= a
			rel = append(rel, release{at: st.Active[i].EstRemaining(a), nodes: a})
		}
	}
	waiting := appendWaitingFCFS(st, nil)
	for len(waiting) > 0 {
		i := waiting[0]
		want := st.Active[i].Job.MaxNodes
		if want > free {
			break
		}
		out[i] = want
		free -= want
		rel = append(rel, release{at: st.Active[i].EstRemaining(want), nodes: want})
		waiting = waiting[1:]
	}
	if len(waiting) <= 1 {
		return
	}
	shadow, extra := reservation(rel, free, st.Active[waiting[0]].Job.MaxNodes)
	for _, i := range waiting[1:] {
		js := st.Active[i]
		want := js.Job.MaxNodes
		if want > free {
			continue
		}
		if est := js.EstRemaining(want); est <= shadow || want <= extra {
			out[i] = want
			free -= want
			if want <= extra {
				extra -= want
			}
		}
	}
}

// randomState draws an active set with many gain, efficiency and
// admission ties: comm factors from a small set (zero, tiny, huge
// included), widths up to the pool, arrivals often on a few shared
// instants (so the ID tie-break decides), a share of jobs already
// running and a share with a performance model. The pool is then often
// resized so the nodes the running jobs leave free are zero, or exactly
// a waiting job's rigid or moldable width, with wider waiters beside it.
func randomState(src *rng.Source, nodes, jobs int) State {
	comms := []float64{0, 1e-12, 0.02, 0.05, 0.05, 0.3, 1, 1e300}
	st := State{Nodes: nodes}
	busy := 0
	for i := 0; i < jobs; i++ {
		arrival := src.Uniform(0, 50)
		if src.Float64() < 0.5 {
			arrival = float64(src.Intn(4))
		}
		j := mkJob(i, arrival, src.Uniform(1, 60), 1+src.Intn(3), 1+src.Intn(nodes), comms[src.Intn(len(comms))])
		if src.Float64() < 0.1 {
			j.Model = appmodel.Roofline{Sat: 1 + src.Intn(8)}
		}
		js := JobState{Job: j, Remaining: j.Phases[0].Work}
		if a := 1 + src.Intn(j.MaxNodes); src.Float64() < 0.3 && busy+a <= nodes {
			js.Alloc = a
			js.Remaining *= src.Uniform(0.1, 1)
			busy += a
		}
		st.Active = append(st.Active, js)
	}
	switch w := st.Active[src.Intn(jobs)]; src.Intn(4) {
	case 0:
		st.Nodes = busy
	case 1:
		st.Nodes = busy + w.Job.MaxNodes
	case 2:
		st.Nodes = busy + moldWidth(w, 0.5)
	}
	return st
}

// TestGreedyHeapMatchesScan: the heap picks exactly the node sequence of
// the per-node scan.
func TestGreedyHeapMatchesScan(t *testing.T) {
	g := &EfficiencyGreedy{}
	for seed := uint64(0); seed < 300; seed++ {
		src := rng.New(seed)
		st := randomState(src, 1+src.Intn(200), 1+src.Intn(60))
		want, got := make([]int, len(st.Active)), make([]int, len(st.Active))
		scanGreedy(st, want)
		g.Allocate(st, got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: heap %v, scan %v", seed, got, want)
		}
	}
}

// TestMoldWidthBinarySearchMatchesScan covers every width up to 600 over
// thresholds on and around the efficiencies themselves, where a float
// tie decides.
func TestMoldWidthBinarySearchMatchesScan(t *testing.T) {
	for _, comm := range []float64{0, -0.0, 1e-12, 0.001, 0.02, 1.0 / 3, 0.5, 1, 7, 1e300} {
		ph := Phase{Work: 10, Comm: comm}
		effs := []float64{0.5, 1, 1e-9, 0}
		for _, p := range []int{2, 3, 17, 100} {
			effs = append(effs, ph.Efficiency(p))
		}
		for _, maxNodes := range []int{1, 2, 3, 31, 64, 600} {
			js := JobState{Job: &Job{Phases: []Phase{ph}, MaxNodes: maxNodes}}
			for _, minEff := range effs {
				if got, want := moldWidth(js, minEff), scanMoldWidth(js, minEff); got != want {
					t.Fatalf("comm %g maxNodes %d minEff %g: binary search %d, scan %d", comm, maxNodes, minEff, got, want)
				}
			}
		}
	}
}

// TestFairShareOrderMatchesStableSort: the unstable (frac desc, index
// asc) sort yields the stable sort's permutation, all-equal fracs
// included.
func TestFairShareOrderMatchesStableSort(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		src := rng.New(seed)
		nodes := 1 + src.Intn(64)
		st := randomState(src, nodes, 1+src.Intn(80))
		if seed%2 == 0 {
			for i := range st.Active {
				st.Active[i].Job.Weight = float64(1 + src.Intn(3))
			}
		}
		f := &FairShare{}
		f.Allocate(st, make([]int, len(st.Active)))
		if want := stableFairOrder(f.frac); !slices.Equal(f.order, want) {
			t.Fatalf("seed %d: order %v, stable %v", seed, f.order, want)
		}
	}
}

// TestAdmitWhatFitsMatchesFullSort: each FCFS-family pass, which queues
// and sorts only the waiting jobs that fit the nodes the running jobs
// leave free, grants exactly what its former full-sort pass granted.
func TestAdmitWhatFitsMatchesFullSort(t *testing.T) {
	for _, tc := range []struct {
		name string
		ref  func(State, []int)
	}{
		{"rigid-fcfs", fullSortRigid},
		{"easy-backfill", fullSortEasy},
		{"moldable", fullSortMoldable},
		{"sjf-moldable", fullSortSJF},
	} {
		s := fresh(t, tc.name) // one instance: scratch reuse across passes
		for seed := uint64(0); seed < 2500; seed++ {
			src := rng.New(seed)
			st := randomState(src, 1+src.Intn(64), 1+src.Intn(40))
			want, got := make([]int, len(st.Active)), make([]int, len(st.Active))
			tc.ref(st, want)
			s.Allocate(st, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: got %v, full sort %v", tc.name, seed, got, want)
			}
		}
	}
}

// TestEasyBackfillMisfitHead: when the FCFS-first waiter is wider than
// the free nodes, it — not a later, narrower misfit — is the head the
// reservation is made for, so a long job that only the narrower misfit's
// reservation would leave room for must not backfill.
func TestEasyBackfillMisfitHead(t *testing.T) {
	running := JobState{Job: mkJob(0, 0, 40, 1, 6, 0), Remaining: 40, Alloc: 6} // 6 of 10 nodes until ≈6.7s
	head := JobState{Job: mkJob(1, 1, 50, 1, 8, 0), Remaining: 50}              // 8 > 4 free: shadow ≈6.7s, extra 2
	narrower := JobState{Job: mkJob(2, 1, 50, 1, 5, 0), Remaining: 50}          // 5 > 4 free too (extra 5 were it the head)
	long := JobState{Job: mkJob(3, 2, 400, 1, 4, 0), Remaining: 400}            // runs 100s on 4 nodes
	short := JobState{Job: mkJob(4, 3, 2, 1, 2, 0), Remaining: 2}               // runs 1s on 2 nodes
	st := State{Nodes: 10, Active: []JobState{running, head, narrower, long, short}}
	got, want := make([]int, len(st.Active)), make([]int, len(st.Active))
	(&EasyBackfill{}).Allocate(st, got)
	fullSortEasy(st, want)
	if !slices.Equal(got, want) || !slices.Equal(got, []int{6, 0, 0, 0, 2}) {
		t.Fatalf("got %v, full sort %v, want [6 0 0 0 2]", got, want)
	}
}
