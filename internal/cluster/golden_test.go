package cluster

import (
	"testing"

	"dpsim/internal/sched"
)

// The golden values below were produced by the simulator BEFORE the
// availability subsystem existed (PR 1 state), printed with %.17g so every
// float64 bit is pinned. A Sim with no capacity changes and a zero
// ReconfigCost must reproduce them exactly: the new subsystem must be
// invisible when unused — and the extraction of the policies into
// internal/sched (PR 3) must be bit-invisible too, which is why the
// schedulers are resolved through the registry here.
var goldenRuns = []struct {
	scheduler             string
	makespan, utilization float64
	finishes              []float64
}{
	{"rigid-fcfs", 188.79864889800001, 0.47411728074094051, []float64{5.1582971710000001, 5.8037251679999997, 6.8064023679999996, 22.138590053000001, 68.875706206000004, 29.977500760000002, 37.717998141999999, 123.180014402, 74.885165516000001, 177.07006413600001, 188.79864889800001, 138.16172400400001, 181.95735566600001, 184.362860563}},
	{"moldable", 219.48881460699999, 0.40782352478124217, []float64{5.3471376880000001, 5.9925656849999998, 6.9952428849999997, 22.138590053000001, 68.875706206000004, 29.977500760000002, 37.717998141999999, 123.180014402, 74.885165516000001, 115.598558861, 183.49974620099999, 178.87511734899999, 188.61367205799999, 219.48881460699999}},
	{"equipartition", 184.362860563, 0.48552458857349573, []float64{5.6423418280000002, 1.9647843110000001, 3.0503002870000002, 22.138590053000001, 76.452668633000002, 29.977500760000002, 37.640857163, 123.180014402, 61.979224346000002, 128.25552246199999, 70.091091926999994, 147.831820884, 89.742863893999996, 184.362860563}},
	{"efficiency-greedy", 184.362860563, 0.48552458857349573, []float64{5.4970332050000001, 2.0030721470000001, 3.0507770399999998, 22.138590053000001, 77.760782934999995, 29.978454265, 37.640857163, 123.31800429, 61.779370450999998, 128.04143105700001, 69.634945509999994, 139.75948730900001, 89.634449684000003, 184.362860563}},

	// The four policies below were introduced together with the sched
	// extraction (PR 3); their goldens pin the implementations at
	// introduction so any later behavioral drift is a deliberate,
	// reviewed change.
	{"easy-backfill", 252.07520738599999, 0.35510315731294234, []float64{5.1582971710000001, 5.8037251679999997, 6.8064023679999996, 22.138590053000001, 68.875706206000004, 29.977500760000002, 37.717998141999999, 123.180014402, 74.885165516000001, 162.08835453399999, 188.79864889800001, 252.07520738599999, 166.97564606399999, 184.362860563}},
	{"sjf-moldable", 224.60274046399999, 0.39853788888845149, []float64{5.3471376880000001, 5.9925656849999998, 6.9952428849999997, 22.138590053000001, 68.875706206000004, 29.977500760000002, 37.717998141999999, 123.180014402, 74.885165516000001, 115.598558861, 188.61367205799999, 183.98904320599999, 120.712484718, 224.60274046399999}},
	{"fair-share", 184.362860563, 0.48552458857349573, []float64{5.5147324040000001, 1.9647843110000001, 3.0503002870000002, 22.138590053000001, 75.714543567000007, 29.977500760000002, 37.640857163, 123.180014402, 61.979224346000002, 121.971897068, 70.091091926999994, 147.48346121099999, 89.742863893999996, 184.362860563}},
	{"malleable-hysteresis", 184.362860563, 0.48552458857349573, []float64{6.5626010389999996, 1.9647843110000001, 3.0503002870000002, 22.138590053000001, 80.504837269999996, 29.977500760000002, 37.640857163, 137.89908384, 61.979224346000002, 148.27256914899999, 73.044471247000004, 161.76086678199999, 90.749478937000006, 184.362860563}},
}

// TestGoldenBackwardCompat: zero availability events and zero
// reconfiguration cost must produce byte-identical results to the
// pre-availability simulator.
func TestGoldenBackwardCompat(t *testing.T) {
	for _, want := range goldenRuns {
		policy, ok := sched.ByName(want.scheduler)
		if !ok {
			t.Fatalf("golden scheduler %s not registered", want.scheduler)
		}
		wl := PoissonWorkload(14, 12, 6, 3)
		sim, err := NewSim(12, policy, wl)
		if err != nil {
			t.Fatal(err)
		}
		// Explicit zero-valued configuration must be as invisible as none.
		if err := sim.SetReconfigCost(ReconfigCost{}); err != nil {
			t.Fatal(err)
		}
		if err := sim.SetCapacityChanges(nil); err != nil {
			t.Fatal(err)
		}
		r := sim.Run()
		if r.Makespan != want.makespan {
			t.Errorf("%s: makespan %.17g, golden %.17g", want.scheduler, r.Makespan, want.makespan)
		}
		if r.Utilization != want.utilization {
			t.Errorf("%s: utilization %.17g, golden %.17g", want.scheduler, r.Utilization, want.utilization)
		}
		if len(r.PerJob) != len(want.finishes) {
			t.Fatalf("%s: %d finished jobs, golden %d", want.scheduler, len(r.PerJob), len(want.finishes))
		}
		for j, out := range r.PerJob {
			if out.Finish != want.finishes[j] {
				t.Errorf("%s: job %d finish %.17g, golden %.17g", want.scheduler, j, out.Finish, want.finishes[j])
			}
		}
		// The new metrics must collapse to their fixed-pool identities.
		if r.CapacityEvents != 0 || r.LostWorkS != 0 || r.RedistributionS != 0 {
			t.Errorf("%s: spurious availability accounting: %+v", want.scheduler, r)
		}
		if r.AvailWeightedUtilization != r.Utilization {
			t.Errorf("%s: availability-weighted utilization %.17g != utilization %.17g with a fixed pool",
				want.scheduler, r.AvailWeightedUtilization, r.Utilization)
		}
	}
}
