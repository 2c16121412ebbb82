package sched_test

import (
	"strings"
	"testing"

	"dpsim/internal/federation"
	"dpsim/internal/sched"
)

// fleetShapes are the two fleet shapes every policy is certified on: a
// single cluster (a plain cell is a one-member fleet), and the federation
// harness's default fleets of one to four members.
var fleetShapes = []struct {
	name string
	cfg  federation.CheckConfig
}{
	{"one-member", federation.CheckConfig{Seed: 0xD05, Rounds: 16, MaxClusters: 1, MaxNodes: 24, MaxJobs: 16}},
	{"multi-member", federation.CheckConfig{Seed: 0xD05}},
}

// certify runs one policy through federation.CheckInvariants, every member
// of every fleet running a fresh instance from newPolicy.
func certify(newPolicy func() (sched.Scheduler, error), cfg federation.CheckConfig) error {
	cfg.SchedulerFactory = newPolicy
	return federation.CheckInvariants("always", "round-robin", cfg)
}

// TestCheckInvariantsAllPolicies certifies every registered policy —
// present and future, since the loop is over Names() — against the
// simulator's invariants under randomized workloads and randomized
// availability timelines, on one-member and multi-member fleets.
func TestCheckInvariantsAllPolicies(t *testing.T) {
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, shape := range fleetShapes {
				err := certify(func() (sched.Scheduler, error) { return sched.New(name, nil) }, shape.cfg)
				if err != nil {
					t.Errorf("%s: %v", shape.name, err)
				}
			}
		})
	}
}

// overAllocator breaks the capacity half of the allocation contract: it
// hands every job its MaxNodes regardless of capacity.
type overAllocator struct{}

func (overAllocator) Name() string { return "test-over-allocator" }
func (overAllocator) Allocate(st sched.State, out []int) {
	for i := range st.Active {
		out[i] = st.Active[i].Job.MaxNodes
	}
}

// greedyBeyondMax breaks the per-job half: one node too many for the
// first job, while the sum still fits the pool.
type greedyBeyondMax struct{}

func (greedyBeyondMax) Name() string { return "test-beyond-max" }
func (greedyBeyondMax) Allocate(st sched.State, out []int) {
	if len(st.Active) > 0 {
		js := st.Active[0]
		if js.Job.MaxNodes < st.Nodes {
			out[0] = js.Job.MaxNodes + 1
		}
	}
}

// TestCheckInvariantsCatchesViolations: the harness must reject broken
// policies, not just bless working ones, on every fleet shape.
func TestCheckInvariantsCatchesViolations(t *testing.T) {
	cases := []struct {
		policy sched.Scheduler
		want   string
	}{
		{overAllocator{}, "usable nodes"},
		{greedyBeyondMax{}, "MaxNodes"},
	}
	for _, shape := range fleetShapes {
		for _, c := range cases {
			err := certify(func() (sched.Scheduler, error) { return c.policy, nil }, shape.cfg)
			if err == nil {
				t.Fatalf("%s: %s passed the invariant suite", shape.name, c.policy.Name())
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: %s: error %q does not mention %q", shape.name, c.policy.Name(), err, c.want)
			}
		}
	}
}
