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
// the scenario's first nodes/load entry. docs/performance.md records the
// pair taken when plain cells were lowered onto the federation tier.
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
