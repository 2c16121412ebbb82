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

// randomState draws an active set with many gain and efficiency ties:
// comm factors from a small set (zero, tiny, huge included), widths up to
// the pool, a share of jobs already running.
func randomState(src *rng.Source, nodes, jobs int) State {
	comms := []float64{0, 1e-12, 0.02, 0.05, 0.05, 0.3, 1, 1e300}
	st := State{Nodes: nodes}
	for i := 0; i < jobs; i++ {
		j := mkJob(i, src.Uniform(0, 50), src.Uniform(1, 60), 1+src.Intn(3), 1+src.Intn(nodes), comms[src.Intn(len(comms))])
		if src.Float64() < 0.1 {
			j.Model = appmodel.Roofline{Sat: 1 + src.Intn(8)}
		}
		js := JobState{Job: j, Remaining: j.Phases[0].Work}
		st.Active = append(st.Active, js)
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
