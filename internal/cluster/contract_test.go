package cluster

import (
	"fmt"
	"strings"
	"testing"

	"dpsim/internal/sched"
)

// contractBreaker is a policy that grants whatever its grant function
// writes, to drive out-of-contract allocations through the simulator.
type contractBreaker struct {
	name  string
	grant func(st sched.State, out []int)
}

func (p contractBreaker) Name() string                       { return p.name }
func (p contractBreaker) Allocate(st sched.State, out []int) { p.grant(st, out) }

// TestAllocationContractPanics: every grant crosses the sched.Scheduler
// contract in Sim.allocate, so a negative grant, a grant above MaxNodes and
// a sum above the usable nodes each stop the simulation with a panic that
// names the policy, the job (for a per-job breach), the bound and the
// instant.
func TestAllocationContractPanics(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		grant func(st sched.State, out []int)
		want  []string
	}{
		{"test-negative", 8,
			func(st sched.State, out []int) {
				if len(out) > 0 {
					out[0] = -1
				}
			},
			[]string{"scheduler test-negative", "job 7", "-1 nodes", "MaxNodes 3", "t=2.5s"}},
		{"test-beyond-max", 8,
			func(st sched.State, out []int) {
				if len(out) > 0 {
					out[0] = st.Active[0].Job.MaxNodes + 1
				}
			},
			[]string{"scheduler test-beyond-max", "job 7", "4 nodes", "MaxNodes 3", "t=2.5s"}},
		{"test-over-full", 5,
			func(st sched.State, out []int) {
				for i := range out {
					out[i] = st.Active[i].Job.MaxNodes
				}
			},
			[]string{"scheduler test-over-full", "over-allocated 6 of 5 usable nodes", "t=2.5s"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs := []*Job{
				{ID: 7, Arrival: 2.5, Phases: []Phase{{Work: 10}}, MaxNodes: 3},
				{ID: 9, Arrival: 2.5, Phases: []Phase{{Work: 10}}, MaxNodes: 3},
			}
			sim, err := NewSim(c.nodes, contractBreaker{c.name, c.grant}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("out-of-contract grant was simulated without a panic")
				}
				msg := fmt.Sprint(r)
				for _, want := range c.want {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			sim.Run()
		})
	}
}
