package scenario

import (
	"path/filepath"
	"testing"
)

// BenchmarkRunCell measures the one cell driver end to end — stream,
// member sims, federation step loop, result — on the three shapes it
// serves: plain cells (openload), plain cells with capacity events
// (volatile) and a real two-member federation (federated_basic). One op
// is one replication of every policy × arrival × availability cell at
// the scenario's first nodes/load entry. What lowering plain cells onto
// the federation tier cost is a line of docs/performance.md's History.
func BenchmarkRunCell(b *testing.B) {
	for _, name := range []string{"openload", "volatile", "federated_basic"} {
		spec, err := Load(filepath.Join("..", "..", "examples", "scenarios", name+".json"))
		if err != nil {
			b.Fatal(err)
		}
		var cells []CellParams
		base := CellParams{Nodes: spec.Nodes[0], Load: spec.Loads[0], AvailIdx: -1, AppModelIdx: -1, Seed: 1}
		for a := range spec.Arrivals {
			base.ArrivalIdx = a
			if f := spec.Federation; f != nil {
				for ad := range f.Admissions {
					for rt := range f.Routings {
						c := base
						c.AdmissionIdx, c.RoutingIdx = ad, rt
						cells = append(cells, c)
					}
				}
				continue
			}
			for sc := range spec.Schedulers {
				c := base
				c.SchedulerIdx = sc
				cells = append(cells, c)
				for av := range spec.Availability {
					c.AvailIdx = av
					cells = append(cells, c)
				}
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range cells {
					if _, err := spec.RunCell(c); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkJobStream measures stream generation alone — arrival clock
// plus job-mix sampler, nothing simulated — for each generated arrival
// process (sweep-open's four) over openload's lu/synthetic/stencil mix
// at its first nodes/load entry. One op drains one 40-job stream of a
// fixed seed; ns/job is the generation cost of one job.
func BenchmarkJobStream(b *testing.B) {
	spec, err := Load(filepath.Join("..", "..", "examples", "scenarios", "openload.json"))
	if err != nil {
		b.Fatal(err)
	}
	spec.Arrivals = ArrivalList{
		{Process: "closed"},
		{Process: "poisson", MeanInterarrivalS: 10},
		{Process: "bursty", BurstInterarrivalS: 2, CalmInterarrivalS: 40, BurstDwellS: 30, CalmDwellS: 120},
		{Process: "diurnal", MeanInterarrivalS: 20, PeriodS: 1800, Amplitude: 0.8},
	}
	for i, a := range spec.Arrivals {
		b.Run(a.Process, func(b *testing.B) {
			b.ReportAllocs()
			jobs := 0
			for n := 0; n < b.N; n++ {
				st, err := spec.Stream(i, spec.Nodes[0], spec.Loads[0], 1)
				if err != nil {
					b.Fatal(err)
				}
				for _, ok := st.Next(); ok; _, ok = st.Next() {
					jobs++
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
		})
	}
}
