package scenario

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dpsim/internal/cluster"
	"dpsim/internal/obs"
)

// The queueing oracle: with Poisson arrivals and one-phase jobs that
// scale perfectly (comm 0), two cells are textbook queues whose means
// have closed forms, so RunCell is checked against queueing theory
// rather than against its own past output. Service times are lognormal
// with coefficient of variation oracleCV, so E[S²] = E[S]²(1+cv²).
const (
	oracleWork = 10.0 // E[S], serial seconds
	oracleCV   = 0.5
	oracleSeed = 1
)

// oracleCase is one queue at one utilisation: reps replications of jobs
// jobs each; the first warm jobs of a replication are dropped so the
// empty-system start does not bias the mean low. half is the largest
// accepted 95% half-width relative to the mean.
type oracleCase struct {
	rho              float64
	reps, jobs, warm int
	half             float64
}

// tQuantile975 is the Student-t 0.975 quantile by degrees of freedom,
// for the replication counts the cases use.
var tQuantile975 = map[int]float64{15: 2.131450, 19: 2.093024}

// oracleMeans runs the cell of spec on nodes at load rho for each
// replication (two at a time; each writes only its own slot) and returns
// the per-replication mean of metric over the jobs after the warm-up.
func oracleMeans(t *testing.T, spec *Spec, nodes int, c oracleCase, metric func(resp, wait float64) float64) []float64 {
	t.Helper()
	return oracleRuns(t, spec, nodes, c, func(res *cluster.Result) float64 {
		var sum float64
		for _, j := range res.PerJob[c.warm:] {
			sum += metric(j.Response, j.Wait)
		}
		return sum / float64(c.jobs-c.warm)
	})
}

// oracleRuns runs the cell of spec on nodes at load rho for each
// replication (two at a time; each writes only its own slot), requires
// every job to finish, and returns each replication's value of stat.
func oracleRuns(t *testing.T, spec *Spec, nodes int, c oracleCase, stat func(*cluster.Result) float64) []float64 {
	t.Helper()
	means := make([]float64, c.reps)
	errs := make([]error, c.reps)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				run, err := spec.RunCell(CellParams{Nodes: nodes, Load: c.rho, Seed: uint64(oracleSeed*1000 + r)})
				if err != nil {
					errs[r] = err
					continue
				}
				if got := len(run.Result.PerJob); got != c.jobs {
					errs[r] = fmt.Errorf("rep %d finished %d of %d jobs", r, got, c.jobs)
					continue
				}
				means[r] = stat(&run.Result)
			}
		}()
	}
	for r := 0; r < c.reps; r++ {
		next <- r
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return means
}

// checkInterval asserts that the Student-t 95% interval over the
// replication means is no wider than c.half of the mean and contains
// want.
func checkInterval(t *testing.T, label string, c oracleCase, means []float64, want float64) {
	t.Helper()
	var mean, ss float64
	for _, m := range means {
		mean += m
	}
	mean /= float64(len(means))
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	q, ok := tQuantile975[len(means)-1]
	if !ok {
		t.Fatalf("no t quantile for %d degrees of freedom", len(means)-1)
	}
	half := q * math.Sqrt(ss/float64(len(means)-1)/float64(len(means)))
	t.Logf("%s rho %.2f: simulated %.5g ± %.3g (%.2f%%), analytic %.5g", label, c.rho, mean, half, 100*half/mean, want)
	if half > c.half*mean {
		t.Errorf("%s rho %.2f: 95%% half-width %.4f is %.2f%% of the mean, want ≤ %.1f%%", label, c.rho, half, 100*half/mean, 100*c.half)
	}
	if math.Abs(mean-want) > half {
		t.Errorf("%s rho %.2f: analytic %.4f outside the 95%% interval %.4f ± %.4f", label, c.rho, want, mean, half)
	}
}

// oracleSpec is a Poisson stream of one-phase, perfectly parallel
// synthetic jobs of width maxNodes under one scheduler on a fixed pool.
// The mean inter-arrival time at load 1 fills the nodes exactly (ρ = 1),
// so a cell's load is its utilisation.
func oracleSpec(t *testing.T, scheduler string, nodes, jobs int) *Spec {
	t.Helper()
	return oracleSpecOn(t, scheduler, nodes, jobs, `{"process": "none"}`)
}

// oracleSpecOn is oracleSpec on the pool availability describes.
func oracleSpecOn(t *testing.T, scheduler string, nodes, jobs int, availability string) *Spec {
	t.Helper()
	spec, err := Parse([]byte(fmt.Sprintf(`{
		"name": "oracle", "nodes": [%d], "schedulers": [%q], "seed": %d, "jobs": %d,
		"mix": [{"kind": "synthetic", "phases": 1, "work_s": %g, "cv": %g, "max_nodes": %d}],
		"arrivals": {"process": "poisson", "mean_interarrival_s": %g},
		"availability": [%s]
	}`, nodes, scheduler, oracleSeed, jobs, oracleWork, oracleCV, nodes, oracleWork/float64(nodes), availability)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQueueingOracle checks two closed forms at ρ ∈ {0.3, 0.6, 0.85},
// and one capacity limit at ρ/A ∈ {0.3, 0.6}:
//
//   - M/G/1-FCFS: rigid-fcfs on one node. Pollaczek–Khinchine gives the
//     mean wait λE[S²] / 2(1−ρ).
//   - M/G/1-PS: equipartition on 720 nodes, every job as wide as the
//     pool, so n jobs share the pool evenly and the pool serves E[S]/720
//     per job. Mean response is (E[S]/720)/(1−ρ), whatever the service
//     law. 720 is divisible by every n ≤ 6, so the shares are exact in
//     the common states; with n ≥ 7 jobs the integer split hands some
//     jobs one node more than others (at most 1 in 103). That residual
//     bias is −0.07% of the mean at ρ = 0.85 (paired against the same
//     seeds on a 720,720-node pool, exact up to n = 16), far inside
//     the interval.
//   - Capacity: equipartition on 16 nodes, every job as wide as the
//     pool, under exponential failures (MTTF 300 s, MTTR 100 s, so each
//     node is up a share A = 0.75 of the time). The policy keeps every
//     usable node busy while any job is active, so the work it serves
//     is the work offered, ρ·nodes per second, and
//     AvailWeightedUtilization tends to ρ/A. Every node starts up; that
//     transient adds 16·(1−A)·τ = 300 node-seconds (τ = 75 s), 0.1% of
//     the capacity integral of the shortest run.
func TestQueueingOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("queueing oracle: long simulation")
	}
	fcfs := []oracleCase{
		{rho: 0.3, reps: 16, jobs: 20_000, warm: 200, half: 0.02},
		{rho: 0.6, reps: 16, jobs: 40_000, warm: 500, half: 0.02},
		{rho: 0.85, reps: 20, jobs: 100_000, warm: 2_000, half: 0.02},
	}
	ps := []oracleCase{
		{rho: 0.3, reps: 16, jobs: 10_000, warm: 200, half: 0.02},
		{rho: 0.6, reps: 16, jobs: 20_000, warm: 500, half: 0.02},
		{rho: 0.85, reps: 20, jobs: 80_000, warm: 2_000, half: 0.02},
	}
	es2 := oracleWork * oracleWork * (1 + oracleCV*oracleCV)
	for _, c := range fcfs {
		lambda := c.rho / oracleWork
		want := lambda * es2 / (2 * (1 - c.rho))
		means := oracleMeans(t, oracleSpec(t, "rigid-fcfs", 1, c.jobs), 1, c, func(_, wait float64) float64 { return wait })
		checkInterval(t, "M/G/1-FCFS mean wait", c, means, want)
	}
	const nodes = 720
	for _, c := range ps {
		want := oracleWork / nodes / (1 - c.rho)
		means := oracleMeans(t, oracleSpec(t, "equipartition", nodes, c.jobs), nodes, c, func(resp, _ float64) float64 { return resp })
		checkInterval(t, "M/G/1-PS mean response", c, means, want)
	}
	// Capacity: equipartition on a failure/repair pool is a
	// work-conserving server of varying speed, so the available capacity
	// it uses is the offered work: AvailWeightedUtilization → ρ/A.
	const (
		poolNodes  = 16
		mttf, mttr = 300.0, 100.0
		avail      = mttf / (mttf + mttr)
	)
	for _, c := range []oracleCase{
		{rho: 0.3, reps: 16, jobs: 20_000, half: 0.02},
		{rho: 0.6, reps: 16, jobs: 20_000, half: 0.02},
	} {
		load := c.rho * avail // the offered utilisation of the full pool
		// Twice the expected last arrival: the timeline outlives the run.
		horizon := 2 * float64(c.jobs) * oracleWork / (poolNodes * load)
		spec := oracleSpecOn(t, "equipartition", poolNodes, c.jobs, fmt.Sprintf(
			`{"process": "failures", "mttf_s": %g, "mttr_s": %g, "horizon_s": %g}`, mttf, mttr, horizon))
		utils := oracleRuns(t, spec, poolNodes, oracleCase{rho: load, reps: c.reps, jobs: c.jobs}, func(res *cluster.Result) float64 {
			if res.Makespan >= horizon {
				t.Errorf("makespan %g s outlives the %g s timeline", res.Makespan, horizon)
			}
			return res.AvailWeightedUtilization
		})
		checkInterval(t, "capacity ρ/A utilisation", c, utils, c.rho)
	}
}

// littleSpec is a small open workload under every registered policy (no
// schedulers key), on a fixed pool and on one failure/repair timeline
// whose repairs let every job finish.
const littleSpec = `{
	"name": "little", "nodes": [8], "seed": 5, "jobs": 40,
	"mix": [{"kind": "synthetic", "phases": 2, "work_s": 40, "comm": 0.05, "cv": 0.5}],
	"arrivals": {"process": "poisson", "mean_interarrival_s": 6},
	"availability": [
		{"process": "none"},
		{"process": "failures", "mttf_s": 60, "mttr_s": 20, "horizon_s": 3000}
	],
	"reconfig": {"redistribution_s_per_node": 0.1, "lost_work_s": 1}
}`

// TestLittlesLaw checks L = λW in its exact sampled form. A sample at t
// reads the gauges after the instant's capacity changes and before its
// arrivals and phase completions, so it counts job i exactly when
// a_i < t ≤ f_i. Summed over the grid t = k·dt, each job then contributes
// its response time to within one dt, and over n jobs
//
//	|dt·Σ_k (Waiting_k + Running_k) − Σ_i Response_i| < n·dt.
func TestLittlesLaw(t *testing.T) {
	const dt = 0.25
	spec, err := Parse([]byte(littleSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec.Observe = &ObserveSpec{SampleDTS: dt}
	for si, sched := range spec.Schedulers {
		for ai, avail := range spec.Availability {
			rec := obs.NewRecorder(obs.Config{})
			run, err := spec.RunCell(CellParams{Nodes: 8, Load: 1, SchedulerIdx: si, AvailIdx: ai, Seed: spec.Seed, Probe: rec})
			if err != nil {
				t.Fatal(err)
			}
			label := sched.Label() + "/" + avail.Label()
			res := run.Result
			if res.Unfinished != 0 || len(res.PerJob) != spec.Jobs {
				t.Fatalf("%s: %d jobs finished, %d unfinished, want all %d", label, len(res.PerJob), res.Unfinished, spec.Jobs)
			}
			if (avail.Label() == "none") != (res.CapacityEvents == 0) {
				t.Fatalf("%s: %d capacity events applied", label, res.CapacityEvents)
			}
			if sum := rec.Summarize(); sum.DroppedSamples != 0 {
				t.Fatalf("%s: %d samples dropped", label, sum.DroppedSamples)
			}
			var jobs int
			for _, s := range rec.Samples() {
				jobs += s.Waiting + s.Running
			}
			var responses float64
			for _, j := range res.PerJob {
				responses += j.Response
			}
			area := dt * float64(jobs)
			if bound := float64(spec.Jobs) * dt; math.Abs(area-responses) >= bound {
				t.Errorf("%s: dt·ΣL = %.3f s, ΣW = %.3f s, differ by %.3f ≥ n·dt = %.3f", label, area, responses, math.Abs(area-responses), bound)
			}
		}
	}
}
