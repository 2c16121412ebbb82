package cluster

import (
	"fmt"
	"strings"
	"testing"

	"dpsim/internal/availability"
	"dpsim/internal/obs"
	"dpsim/internal/sched"
)

// fingerprintResult renders the run totals and every job's arrival,
// finish and wait with full float64 precision (a sweep's response and
// wait means are functions of these) — except Reallocations, whose
// semantics are defined per scheduler invocation and therefore changed
// (deliberately) when equal-instant invocations were coalesced (see
// docs/performance.md).
// Everything else must be byte-identical to the pre-coalescing engine.
func fingerprintResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mk=%.17g u=%.17g au=%.17g unf=%d cap=%d lost=%.17g red=%.17g",
		r.Makespan, r.Utilization, r.AvailWeightedUtilization,
		r.Unfinished, r.CapacityEvents, r.LostWorkS, r.RedistributionS)
	for _, j := range r.PerJob {
		fmt.Fprintf(&b, " [%d a=%.17g f=%.17g w=%.17g]", j.ID, j.Arrival, j.Finish, j.Wait)
	}
	return b.String()
}

// burstWorkload is a mid-run equal-instant arrival burst: a handful of
// staggered background jobs plus eight jobs all arriving at exactly
// t=20 — the bursty-MMPP / batch-trace-replay shape that coalescing
// collapses to a single scheduler invocation.
func burstWorkload() []*Job {
	jobs := PoissonWorkload(6, 16, 10, 5)
	for i := 0; i < 8; i++ {
		jobs = append(jobs, &Job{
			ID:       100 + i,
			Arrival:  20,
			Phases:   SyntheticProfile(3+i%3, float64(60+17*i), 0.02+0.01*float64(i%4)),
			MaxNodes: 2 + i%7,
		})
	}
	return jobs
}

// exactWorkload is four identical jobs arriving at t=0 whose phases use
// exact binary arithmetic (comm 0, power-of-two work, MaxNodes 2): under
// an even split every phase completes at exactly the same nanosecond, so
// the run exercises simultaneous phase completions at every boundary.
func exactWorkload() []*Job {
	jobs := make([]*Job, 4)
	for i := range jobs {
		jobs[i] = &Job{
			ID:       i,
			Arrival:  0,
			Phases:   SyntheticProfile(4, 64, 0),
			MaxNodes: 2,
		}
	}
	return jobs
}

// capacityBurstChanges drops capacity abruptly at exactly t=20 — the
// same instant as burstWorkload\'s arrival burst — then restores it.
func capacityBurstChanges() []availability.Change {
	return []availability.Change{
		{At: 20, Capacity: 9},
		{At: 60, Capacity: 16},
	}
}

func runBurstCase(t *testing.T, policy string, jobs []*Job, changes []availability.Change) Result {
	t.Helper()
	p, err := sched.New(policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(16, p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if changes != nil {
		if err := sim.SetCapacityChanges(changes); err != nil {
			t.Fatal(err)
		}
	}
	return sim.Run()
}

type burstKey struct{ scenario, policy string }

// coalesceGoldens pins the burst scenarios bit-for-bit to the
// PRE-coalescing engine (captured at PR 8 HEAD with %.17g): collapsing
// the k same-instant scheduler invocations into one must not move a
// single float bit of any Result field other than Reallocations.
var coalesceGoldens = map[burstKey]string{
	{"burst-arrivals", "easy-backfill"}:                  `mk=208.896598923 u=0.47309210366047216 au=0.47309210366047216 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=134.6150068 w=47.390306363308333] [3 a=57.565653544377085 f=168.88178153199999 w=77.049353255622918] [4 a=78.300295773235945 f=173.73721545999999 w=90.581485758764046] [5 a=106.26504499614416 f=208.896598923 w=67.472170463855832] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=46.640000000000001 w=0] [104 a=20 f=69.786666667999995 w=26.32] [105 a=20 f=71.649523813000002 w=27.206666667999997] [106 a=20 f=95.706666667999997 w=49.786666667999995] [107 a=20 f=165.624523813 w=51.649523813000002]`,
	{"burst-arrivals", "efficiency-greedy"}:              `mk=147.55697845899999 u=0.66975708274929224 au=0.66975708274929224 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=122.178661929 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=125.05618019000001 w=0] [4 a=78.300295773235945 f=87.568534932000006 w=0] [5 a=106.26504499614416 f=147.55697845899999 w=0] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=59.655000000000001 w=0] [102 a=20 f=67.151323963999999 w=0] [103 a=20 f=75.677828966999996 w=0] [104 a=20 f=63.261802883999998 w=0] [105 a=20 f=78.692444795 w=0] [106 a=20 f=85.464446428000002 w=0] [107 a=20 f=129.50243956700001 w=0]`,
	{"burst-arrivals", "equipartition"}:                  `mk=148.64496299800001 u=0.66485489611464132 au=0.66485489611464132 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.225839615 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=120.592867107 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=125.764286633 w=0] [4 a=78.300295773235945 f=89.662802665000001 w=0] [5 a=106.26504499614416 f=148.64496299800001 w=0] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=59.655000000000001 w=0] [102 a=20 f=68.879999999999995 w=0] [103 a=20 f=78.275000000000006 w=0] [104 a=20 f=85.268081799000001 w=0] [105 a=20 f=91.714078461 w=0] [106 a=20 f=99.098150562000001 w=0] [107 a=20 f=116.05216842199999 w=0]`,
	{"burst-arrivals", "fair-share"}:                     `mk=147.45832310399999 u=0.67020517629444809 au=0.67020517629444809 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=118.01038866499999 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=122.05729291599999 w=0] [4 a=78.300295773235945 f=89.662802665000001 w=0] [5 a=106.26504499614416 f=147.45832310399999 w=0] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=59.655000000000001 w=0] [102 a=20 f=68.879999999999995 w=0] [103 a=20 f=78.275000000000006 w=0] [104 a=20 f=85.268081799000001 w=0] [105 a=20 f=91.714078461 w=0] [106 a=20 f=99.098150562000001 w=0] [107 a=20 f=116.05216842199999 w=0]`,
	{"burst-arrivals", "malleable-hysteresis"}:           `mk=173.38043591499999 u=0.5700027855533264 au=0.5700027855533264 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=128.72268785 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=134.367988107 w=0] [4 a=78.300295773235945 f=91.233907372999994 w=0] [5 a=106.26504499614416 f=168.987552483 w=0] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=59.655000000000001 w=0] [102 a=20 f=68.879999999999995 w=0] [103 a=20 f=78.275000000000006 w=0] [104 a=20 f=85.280000000000001 w=0] [105 a=20 f=94.674999999999997 w=0] [106 a=20 f=114.499956371 w=0] [107 a=20 f=173.38043591499999 w=0]`,
	{"burst-arrivals", "moldable"}:                       `mk=227.958471108 u=0.43353217343337297 au=0.43353217343337297 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=141.67625049 w=52.646496840308338] [3 a=57.565653544377085 f=182.38964383499999 w=84.110596945622916] [4 a=78.300295773235945 f=187.24507776300001 w=104.08934806176404] [5 a=106.26504499614416 f=227.958471108 w=80.980032766855857] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=46.640000000000001 w=0] [104 a=20 f=70.106666668000003 w=26.640000000000001] [105 a=20 f=75.042857144999999 w=30.600000000000001] [106 a=20 f=100.962857145 w=55.042857144999999] [107 a=20 f=113.97499999999999 w=0]`,
	{"burst-arrivals", "rigid-fcfs"}:                     `mk=214.15278939999999 u=0.46148047713451823 au=0.46148047713451823 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=139.87119727699999 w=52.646496840308338] [3 a=57.565653544377085 f=174.13797200900001 w=82.305543732622908] [4 a=78.300295773235945 f=178.99340593700001 w=95.837676235764064] [5 a=106.26504499614416 f=214.15278939999999 w=72.72836094085585] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=46.640000000000001 w=0] [104 a=20 f=70.106666668000003 w=26.640000000000001] [105 a=20 f=75.042857144999999 w=30.600000000000001] [106 a=20 f=100.962857145 w=55.042857144999999] [107 a=20 f=113.97499999999999 w=0]`,
	{"burst-arrivals", "sjf-moldable"}:                   `mk=227.958471108 u=0.43353217343337297 au=0.43353217343337297 unf=0 cap=0 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=146.531684418 w=57.501930768308334] [3 a=57.565653544377085 f=187.24507776300001 w=88.966030873622913] [4 a=78.300295773235945 f=105.818291073 w=22.662561371764056] [5 a=106.26504499614416 f=227.958471108 w=80.980032766855857] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=46.640000000000001 w=0] [104 a=20 f=70.106666668000003 w=26.640000000000001] [105 a=20 f=75.042857144999999 w=30.600000000000001] [106 a=20 f=100.962857145 w=55.042857144999999] [107 a=20 f=113.97499999999999 w=0]`,
	{"simultaneous-completions", "easy-backfill"}:        `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "efficiency-greedy"}:    `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "equipartition"}:        `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "fair-share"}:           `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "malleable-hysteresis"}: `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "moldable"}:             `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "rigid-fcfs"}:           `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"simultaneous-completions", "sjf-moldable"}:         `mk=32 u=0.5 au=0.5 unf=0 cap=0 lost=0 red=0 [0 a=0 f=32 w=0] [1 a=0 f=32 w=0] [2 a=0 f=32 w=0] [3 a=0 f=32 w=0]`,
	{"capacity-burst", "easy-backfill"}:                  `mk=237.39945606800001 u=0.41629131367382821 au=0.44942053609009108 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=163.11786394500001 w=75.893163508308334] [3 a=57.565653544377085 f=197.384638677 w=105.55221040062293] [4 a=78.300295773235945 f=202.24007260499999 w=119.08434290376405] [5 a=106.26504499614416 f=237.39945606800001 w=95.975027608855839] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=73.846666667999997 w=27.206666667999997] [104 a=20 f=83.466666668000002 w=40] [105 a=20 f=98.289523813000002 w=53.846666667999997] [106 a=20 f=124.209523813 w=78.289523813000002] [107 a=20 f=140.29499999999999 w=26.32]`,
	{"capacity-burst", "efficiency-greedy"}:              `mk=155.07022200399999 u=0.6373069578081263 au=0.71837734934473296 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=142.10268935600001 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=145.047107955 w=0] [4 a=78.300295773235945 f=98.958034201999993 w=0] [5 a=106.26504499614416 f=155.07022200399999 w=0] [100 a=20 f=52.794085197000001 w=0] [101 a=20 f=79.055000000000007 w=0] [102 a=20 f=88.079999999999998 w=0] [103 a=20 f=94.945327341999999 w=0] [104 a=20 f=88.720121274999997 w=0] [105 a=20 f=100.473236128 w=0] [106 a=20 f=105.230712463 w=0] [107 a=20 f=142.02612500000001 w=0]`,
	{"capacity-burst", "equipartition"}:                  `mk=159.54192291800001 u=0.61944427912401689 au=0.69576171176626811 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.225839615 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=133.12697051699999 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=139.80398052000001 w=0] [4 a=78.300295773235945 f=91.233907372999994 w=0] [5 a=106.26504499614416 f=159.54192291800001 w=0] [100 a=20 f=52.794085197000001 w=0] [101 a=20 f=79.055000000000007 w=0] [102 a=20 f=88.079999999999998 w=0] [103 a=20 f=97.275000000000006 w=0] [104 a=20 f=102.695782532 w=0] [105 a=20 f=109.052342035 w=0] [106 a=20 f=127.24599371399999 w=0] [107 a=20 f=146.31299999999999 w=0]`,
	{"capacity-burst", "fair-share"}:                     `mk=156.35502094500001 u=0.63207008533972087 au=0.71173034118186596 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=132.47374452099999 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=135.79431859600001 w=0] [4 a=78.300295773235945 f=91.233907372999994 w=0] [5 a=106.26504499614416 f=156.35502094500001 w=0] [100 a=20 f=52.794085197000001 w=0] [101 a=20 f=79.055000000000007 w=0] [102 a=20 f=88.079999999999998 w=0] [103 a=20 f=97.275000000000006 w=0] [104 a=20 f=102.695782532 w=0] [105 a=20 f=109.052342035 w=0] [106 a=20 f=127.24599371399999 w=0] [107 a=20 f=146.31299999999999 w=0]`,
	{"capacity-burst", "malleable-hysteresis"}:           `mk=199 u=0.49661975593969848 au=0.54450320348209358 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=174.05644702500001 w=3.0834002018309548e-10] [3 a=57.565653544377085 f=176.721775057 w=0] [4 a=78.300295773235945 f=91.233907372999994 w=0] [5 a=106.26504499614416 f=192.57670965899999 w=0] [100 a=20 f=52.794085197000001 w=0] [101 a=20 f=97 w=0] [102 a=20 f=114 w=0] [103 a=20 f=131 w=0] [104 a=20 f=148 w=0] [105 a=20 f=154.00666666699999 w=0] [106 a=20 f=164.08426666700001 w=0] [107 a=20 f=199 w=0]`,
	{"capacity-burst", "moldable"}:                       `mk=251.20513777599999 u=0.39341285893652572 au=0.42287188194691422 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=164.92291715799999 w=75.893163508308334] [3 a=57.565653544377085 f=205.636310503 w=107.35726361362291] [4 a=78.300295773235945 f=210.491744431 w=127.33601472976406] [5 a=106.26504499614416 f=251.20513777599999 w=104.22669943485585] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=73.846666667999997 w=27.206666667999997] [104 a=20 f=83.466666668000002 w=40] [105 a=20 f=98.289523813000002 w=53.846666667999997] [106 a=20 f=124.209523813 w=78.289523813000002] [107 a=20 f=140.29499999999999 w=26.32]`,
	{"capacity-burst", "rigid-fcfs"}:                     `mk=237.39945606800001 u=0.41629131367382821 au=0.44942053609009108 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=163.11786394500001 w=75.893163508308334] [3 a=57.565653544377085 f=197.384638677 w=105.55221040062293] [4 a=78.300295773235945 f=202.24007260499999 w=119.08434290376405] [5 a=106.26504499614416 f=237.39945606800001 w=95.975027608855839] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=73.846666667999997 w=27.206666667999997] [104 a=20 f=83.466666668000002 w=40] [105 a=20 f=98.289523813000002 w=53.846666667999997] [106 a=20 f=124.209523813 w=78.289523813000002] [107 a=20 f=140.29499999999999 w=26.32]`,
	{"capacity-burst", "sjf-moldable"}:                   `mk=251.20513777599999 u=0.39341285893652572 au=0.42287188194691422 unf=0 cap=2 lost=0 red=0 [0 a=4.8901202307461373 f=10.004046088000001 w=2.5386270863236859e-10] [1 a=5.9363882055458017 f=11.945847516000001 w=4.5419845662308944e-10] [2 a=48.316360304691663 f=169.77835108599999 w=80.74859743630833] [3 a=57.565653544377085 f=210.491744431 w=112.2126975416229] [4 a=78.300295773235945 f=103.144957741 w=19.989228039764058] [5 a=106.26504499614416 f=251.20513777599999 w=104.22669943485585] [100 a=20 f=50.600000000000001 w=0] [101 a=20 f=47.206666667999997 w=0] [102 a=20 f=46.32 w=0] [103 a=20 f=73.846666667999997 w=27.206666667999997] [104 a=20 f=83.466666668000002 w=40] [105 a=20 f=98.289523813000002 w=53.846666667999997] [106 a=20 f=129.064957741 w=83.144957740999999] [107 a=20 f=140.29499999999999 w=26.32]`,
}

// TestCoalescingGolden: equal-instant bursts — k same-instant arrivals,
// simultaneous phase completions, a capacity drop colliding with an
// arrival burst — must produce byte-identical Results to the
// pre-coalescing engine, for every registered policy.
func TestCoalescingGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		jobs    func() []*Job
		changes []availability.Change
	}{
		{"burst-arrivals", burstWorkload, nil},
		{"simultaneous-completions", exactWorkload, nil},
		{"capacity-burst", burstWorkload, capacityBurstChanges()},
	} {
		for _, policy := range sched.Names() {
			want, ok := coalesceGoldens[burstKey{tc.name, policy}]
			if !ok {
				t.Errorf("%s/%s: no golden pinned — capture one with fingerprintResult", tc.name, policy)
				continue
			}
			got := fingerprintResult(runBurstCase(t, policy, tc.jobs(), tc.changes))
			if got != want {
				t.Errorf("%s/%s: result drifted from the pre-coalescing engine\ngot:  %s\nwant: %s",
					tc.name, policy, got, want)
			}
		}
	}
}

// invokeCountProbe counts scheduler invocations per instant.
type invokeCountProbe struct {
	byInstant map[float64]int
	order     []float64
}

func (p *invokeCountProbe) JobArrive(t float64, jobID int)                                        {}
func (p *invokeCountProbe) JobFirstStart(t float64, jobID int)                                    {}
func (p *invokeCountProbe) PhaseDone(t float64, jobID, phase, phases int)                         {}
func (p *invokeCountProbe) JobFinish(t float64, jobID int)                                        {}
func (p *invokeCountProbe) CapacityNotice(t float64, target int)                                  {}
func (p *invokeCountProbe) CapacityChange(t float64, capacity int)                                {}
func (p *invokeCountProbe) Preempt(t float64, jobID int)                                          {}
func (p *invokeCountProbe) ReconfigCharge(t float64, jobID int, k obs.ChargeKind, amount float64) {}
func (p *invokeCountProbe) TimeSample(s obs.Sample)                                               {}

func (p *invokeCountProbe) SchedulerInvoke(t float64, inv obs.SchedulerInvocation) {
	if p.byInstant == nil {
		p.byInstant = map[float64]int{}
	}
	if p.byInstant[t] == 0 {
		p.order = append(p.order, t)
	}
	p.byInstant[t]++
}

// TestSchedulerInvokePerDirtyInstant pins the coalescing contract: every
// instant with at least one job or capacity event triggers EXACTLY one
// scheduler invocation — a burst of eight same-instant arrivals costs
// one policy call, not eight.
func TestSchedulerInvokePerDirtyInstant(t *testing.T) {
	for _, policy := range sched.Names() {
		probe := &invokeCountProbe{}
		p, err := sched.New(policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(16, p, burstWorkload())
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.SetProbe(probe); err != nil {
			t.Fatal(err)
		}
		sim.Run()
		for _, at := range probe.order {
			if n := probe.byInstant[at]; n != 1 {
				t.Errorf("%s: %d scheduler invocations at t=%g, want exactly 1", policy, n, at)
			}
		}
		if probe.byInstant[20] != 1 {
			t.Errorf("%s: burst instant t=20 saw %d invocations, want 1", policy, probe.byInstant[20])
		}
	}
}

// TestReallocationsCoalescedSemantics pins Result.Reallocations under
// coalescing: per-job allocation deltas are counted once per coalesced
// invocation, so two identical jobs arriving together on four nodes under
// equipartition cost exactly two reallocations (0→2 each) — not the three
// of the per-event engine (0→4, 4→2, 0→2).
func TestReallocationsCoalescedSemantics(t *testing.T) {
	jobs := []*Job{
		{ID: 0, Arrival: 0, Phases: SyntheticProfile(1, 8, 0), MaxNodes: 4},
		{ID: 1, Arrival: 0, Phases: SyntheticProfile(1, 8, 0), MaxNodes: 4},
	}
	sim, err := NewSim(4, sched.Equipartition{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Reallocations != 2 {
		t.Errorf("Reallocations = %d, want 2 (one coalesced invocation admitting both jobs)", res.Reallocations)
	}
	if res.Unfinished != 0 {
		t.Errorf("unfinished = %d, want 0", res.Unfinished)
	}
}

// burstSteadySim builds a warmed-up simulation whose every instant is a
// full burst: 16 identical exact-arithmetic jobs complete a phase at the
// same nanosecond, forever — the coalesced hot path under maximum
// same-instant pressure.
func burstSteadySim(tb testing.TB, policyName string) *Sim {
	tb.Helper()
	policy, err := sched.New(policyName, nil)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]*Job, 16)
	for i := range jobs {
		jobs[i] = &Job{
			ID:       i,
			Arrival:  0,
			Phases:   SyntheticProfile(512, 4096, 0),
			MaxNodes: 2,
		}
	}
	sim, err := NewSim(32, policy, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if !sim.ProcessNextEvent() {
			tb.Fatal("workload drained during warm-up")
		}
	}
	return sim
}

// TestProcessNextEventZeroAllocBurstSteadyState extends the
// zero-allocation gate to the coalesced burst path: steady-state
// simultaneous phase completions — mark-dirty, deferred flush, single
// scheduler invocation — must not allocate either, for every policy.
func TestProcessNextEventZeroAllocBurstSteadyState(t *testing.T) {
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sim := burstSteadySim(t, name)
			allocs := testing.AllocsPerRun(200, func() {
				if !sim.ProcessNextEvent() {
					t.Fatal("workload drained mid-measurement")
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocations per steady-state burst event, want 0", name, allocs)
			}
		})
	}
}
