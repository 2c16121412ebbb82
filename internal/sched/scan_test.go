package sched

import (
	"math"
	"slices"
	"testing"
	"time"

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

// densePlaceRunning is placeRunning's former walk over every active job
// instead of State.Held.
func densePlaceRunning(st State, out []int) int {
	free := st.Nodes
	for i := range st.Active {
		if a := st.Active[i].Alloc; a > 0 {
			out[i] = a
			free -= a
		}
	}
	return free
}

// fullSortRigid is Rigid's former pass over the whole sorted queue.
func fullSortRigid(st State, out []int) {
	free := densePlaceRunning(st, out)
	for _, i := range appendWaitingFCFS(st, nil) {
		if want := st.Active[i].Job.MaxNodes; want <= free {
			out[i] = want
			free -= want
		}
	}
}

// fullSortMoldable is Moldable's former pass over the whole sorted queue.
func fullSortMoldable(st State, out []int) {
	free := densePlaceRunning(st, out)
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
	free := densePlaceRunning(st, out)
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
// Held lists the running jobs, as the simulator fills it.
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
	st.Held = heldOf(st.Active)
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

// fullSortFairShare is FairShare's former pass, which sorted the
// remainders on every call.
func fullSortFairShare(st State, out []int) {
	var totalW float64
	for i := range st.Active {
		totalW += jobWeight(st.Active[i].Job)
	}
	frac := make([]float64, len(st.Active))
	used := 0
	for i := range st.Active {
		js := &st.Active[i]
		quota := float64(st.Nodes) * jobWeight(js.Job) / totalW
		out[i] = int(math.Floor(quota))
		frac[i] = quota - float64(out[i])
		if out[i] > js.Job.MaxNodes {
			out[i] = js.Job.MaxNodes
			frac[i] = 0
		}
		used += out[i]
	}
	for _, i := range stableFairOrder(frac) {
		if used >= st.Nodes {
			break
		}
		if out[i] < st.Active[i].Job.MaxNodes && frac[i] > 0 {
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
			break
		}
	}
}

// TestFairShareMatchesFullSort: FairShare, which skips the sort when the
// identity order already is (frac desc, index asc), grants exactly what
// the always-sorting pass granted. The states draw weights from
// {0, 0.5, 1, 2} (uniform in half of them, so whole passes skip the
// sort), MaxNodes caps that bind, pools that divide evenly (all
// remainders equal) and up to 2,000 jobs; both paths must be taken.
func TestFairShareMatchesFullSort(t *testing.T) {
	weights := []float64{0, 0.5, 1, 2}
	f := &FairShare{} // one instance: scratch reuse across passes
	skipped := 0
	const states = 2500
	for seed := uint64(0); seed < states; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn([]int{8, 64, 2000}[src.Intn(3)])
		nodes := 1 + src.Intn(4*n)
		if src.Float64() < 0.3 {
			nodes = n * (1 + src.Intn(8)) // equal shares, equal remainders
		}
		uniform := seed%2 == 0
		w := weights[src.Intn(len(weights))]
		st := State{Nodes: nodes, Active: make([]JobState, n)}
		for i := range st.Active {
			if !uniform {
				w = weights[src.Intn(len(weights))]
			}
			maxNodes := nodes
			if src.Float64() < 0.3 {
				maxNodes = 1 + src.Intn(1+nodes/n) // at or below the share: binds
			}
			j := mkJob(i, 0, 10, 1, maxNodes, 0)
			j.Weight = w
			st.Active[i] = JobState{Job: j, Remaining: 10}
		}
		want, got := make([]int, n), make([]int, n)
		fullSortFairShare(st, want)
		f.Allocate(st, got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: got %v, full sort %v", seed, got, want)
		}
		if slices.IsSorted(f.order) {
			skipped++
		}
	}
	if skipped == 0 || skipped == states {
		t.Fatalf("%d of %d states had the identity order: both paths must run", skipped, states)
	}
}

// TestAdmitWhatFitsMatchesFullSort: each FCFS-family pass, which places
// the running jobs from State.Held, queues and sorts only the waiting
// jobs that fit the nodes they leave free (none, when they fill the
// pool), grants exactly what its former full-sort pass granted. States
// where the running jobs fill the pool and jobs wait must occur.
func TestAdmitWhatFitsMatchesFullSort(t *testing.T) {
	full := 0
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
			if densePlaceRunning(st, make([]int, len(st.Active))) == 0 && len(st.Held) < len(st.Active) {
				full++
			}
			tc.ref(st, want)
			s.Allocate(st, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s seed %d: got %v, full sort %v", tc.name, seed, got, want)
			}
		}
	}
	if full == 0 {
		t.Fatal("no state had its pool filled by running jobs with jobs waiting")
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
	st := State{Nodes: 10, Active: []JobState{running, head, narrower, long, short}, Held: []int{0}}
	got, want := make([]int, len(st.Active)), make([]int, len(st.Active))
	(&EasyBackfill{}).Allocate(st, got)
	fullSortEasy(st, want)
	if !slices.Equal(got, want) || !slices.Equal(got, []int{6, 0, 0, 0, 2}) {
		t.Fatalf("got %v, full sort %v, want [6 0 0 0 2]", got, want)
	}
}

// threePassFairShare is FairShare's former pass: the quotas in one loop,
// the identity order and its check in a second, every weight divided on
// its own.
func threePassFairShare(st State, out []int) {
	if len(st.Active) == 0 {
		return
	}
	var totalW float64
	for i := range st.Active {
		totalW += jobWeight(st.Active[i].Job)
	}
	frac := make([]float64, len(st.Active))
	used := 0
	for i := range st.Active {
		js := &st.Active[i]
		quota := float64(st.Nodes) * jobWeight(js.Job) / totalW
		out[i] = int(math.Floor(quota))
		frac[i] = quota - float64(out[i])
		if out[i] > js.Job.MaxNodes {
			out[i] = js.Job.MaxNodes
			frac[i] = 0
		}
		used += out[i]
	}
	order := make([]int, len(st.Active))
	sorted := true
	for i := range order {
		order[i] = i
		if i > 0 && !(frac[i-1] >= frac[i]) {
			sorted = false
		}
	}
	if !sorted {
		order = stableFairOrder(frac)
	}
	for _, i := range order {
		if used >= st.Nodes {
			break
		}
		if out[i] < st.Active[i].Job.MaxNodes && frac[i] > 0 {
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
			break
		}
	}
}

// TestFairShareMatchesThreePass: FairShare, which computes each weight-1
// quota once and builds the identity order while it apportions, grants
// exactly what the former three-pass version granted. Weights come from
// {−1, 0, 0.5, 1, 1, 1, 3, 1e300} (uniform in a third of the states; −1
// and 0 mean 1, 1e300 leaves every other quota a tiny or zero
// remainder), and caps at or below the share bind in some states. An
// infinite weight is left out: its quota is NaN, which both versions
// floor to the minimum int, and neither pass returns (the cluster
// simulator refuses such a job at intake).
func TestFairShareMatchesThreePass(t *testing.T) {
	weights := []float64{-1, 0, 0.5, 1, 1, 1, 3, 1e300}
	f := &FairShare{} // one instance: scratch reuse across passes
	capped, unit := 0, 0
	for seed := uint64(0); seed < 3000; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn([]int{8, 64, 700}[src.Intn(3)])
		nodes := 1 + src.Intn(4*n)
		if src.Float64() < 0.3 {
			nodes = n * (1 + src.Intn(8))
		}
		w := weights[src.Intn(len(weights))]
		st := State{Nodes: nodes, Active: make([]JobState, n)}
		for i := range st.Active {
			if seed%3 != 0 {
				w = weights[src.Intn(len(weights))]
			}
			maxNodes := 1 + src.Intn(nodes)
			if src.Float64() < 0.3 {
				maxNodes = 1 + src.Intn(1+nodes/n)
				capped++
			}
			j := mkJob(i, 0, 10, 1, maxNodes, 0)
			j.Weight = w
			if jobWeight(j) == 1 {
				unit++
			}
			st.Active[i] = JobState{Job: j, Remaining: 10}
		}
		want, got := make([]int, n), make([]int, n)
		threePassFairShare(st, want)
		f.Allocate(st, got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: got %v, three-pass %v", seed, got, want)
		}
	}
	if capped == 0 || unit == 0 {
		t.Fatalf("%d capped and %d weight-1 jobs: both must occur", capped, unit)
	}
}

// TestFairShareHugeWeights: weights so large that Nodes·w overflows
// still yield a terminating, in-contract, work-conserving apportionment,
// and the same one as the weights scaled down by a power of two, which
// the unscaled arithmetic apportions (so ratios are kept exactly).
func TestFairShareHugeWeights(t *testing.T) {
	f := &FairShare{}
	for seed := uint64(0); seed < 500; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn(12)
		nodes := 1 + src.Intn(40)
		st := State{Nodes: nodes, Active: make([]JobState, n)}
		low := State{Nodes: nodes, Active: make([]JobState, n)}
		capSum := 0
		for i := range st.Active {
			w := []float64{1, 3, 1e300, 1e307, 1e308, 0.5e308, math.MaxFloat64}[src.Intn(7)]
			maxNodes := 1 + src.Intn(nodes)
			capSum += maxNodes
			j := mkJob(i, 0, 10, 1, maxNodes, 0)
			j.Weight = w
			k := *j
			k.Weight = math.Ldexp(w, -64)
			st.Active[i] = JobState{Job: j, Remaining: 10}
			low.Active[i] = JobState{Job: &k, Remaining: 10}
		}
		got, want := make([]int, n), make([]int, n)
		done := make(chan struct{})
		go func() { f.Allocate(st, got); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: Allocate has not returned after 10 s", seed)
		}
		used := 0
		for i, a := range got {
			if a < 0 || a > st.Active[i].Job.MaxNodes {
				t.Fatalf("seed %d: job %d granted %d of MaxNodes %d (%v)", seed, i, a, st.Active[i].Job.MaxNodes, got)
			}
			used += a
		}
		if used != min(nodes, capSum) {
			t.Fatalf("seed %d: %d of %d nodes granted (caps sum to %d): %v", seed, used, nodes, capSum, got)
		}
		threePassFairShare(low, want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: got %v, weights scaled by 2^-64 give %v", seed, got, want)
		}
	}
}
