package sched

func init() {
	Register("equipartition", func(p Params) (Scheduler, error) {
		if err := p.Check("sched", "equipartition"); err != nil {
			return nil, err
		}
		return Equipartition{}, nil
	})
}

// Equipartition divides the nodes evenly among active jobs (classic
// malleable scheduling, Cirne/Berman-style moldability taken to runtime).
type Equipartition struct{}

// Name implements Scheduler.
func (Equipartition) Name() string { return "equipartition" }

// Allocate implements Scheduler. Active arrives in ascending job-ID
// order — exactly the order the even split hands out its remainder — so
// the policy needs no working storage at all.
func (Equipartition) Allocate(st State, out []int) {
	if len(st.Active) == 0 {
		return
	}
	share := st.Nodes / len(st.Active)
	extra := st.Nodes % len(st.Active)
	n := len(st.Active)
	if share == 0 {
		n = extra // the rest get nothing, and out arrives zeroed
	}
	for i := range n {
		a := share
		if i < extra {
			a++
		}
		if m := st.Active[i].Job.MaxNodes; a > m {
			a = m
		}
		out[i] = a
	}
}
