package federation

import (
	"strings"
	"testing"

	"dpsim/internal/cluster"
	"dpsim/internal/sched"
)

// TestCheckInvariantsAllPairs certifies every registered admission ×
// routing pair — including policies registered after this test was
// written — against the full invariant suite.
func TestCheckInvariantsAllPairs(t *testing.T) {
	for _, a := range AdmissionNames() {
		for _, r := range RouterNames() {
			a, r := a, r
			t.Run(a+"/"+r, func(t *testing.T) {
				t.Parallel()
				if err := CheckInvariants(a, r, CheckConfig{}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// brokenAdmission violates determinism: the factory hands the same
// instance to every construction, and the instance admits only the very
// first job it ever sees — so the second same-seed rerun behaves
// differently from the first.
type brokenAdmission struct {
	calls int
}

func (b *brokenAdmission) Name() string { return "broken-admission" }
func (b *brokenAdmission) Admit(now float64, j *cluster.Job) bool {
	b.calls++
	return b.calls == 1
}

// TestCheckInvariantsBitesAdmission proves the harness catches a
// non-deterministic admission policy: same-seed reruns must be reported
// as diverged.
func TestCheckInvariantsBitesAdmission(t *testing.T) {
	shared := &brokenAdmission{}
	err := CheckInvariants("broken-admission", "round-robin", CheckConfig{
		AdmissionFactory: func() (Admission, error) { return shared, nil },
	})
	if err == nil {
		t.Fatal("CheckInvariants accepted a stateful-across-runs admission policy")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("err = %v, want a same-seed divergence report", err)
	}
}

// brokenRouter violates the range contract: it always returns an index
// one past the last member.
type brokenRouter struct{}

func (brokenRouter) Name() string { return "broken-router" }
func (brokenRouter) Route(now float64, j *cluster.Job, views []ClusterView) int {
	return len(views)
}

// TestCheckInvariantsBitesRouter proves the harness catches a router
// that routes outside the fleet.
func TestCheckInvariantsBitesRouter(t *testing.T) {
	err := CheckInvariants("always", "broken-router", CheckConfig{
		RouterFactory: func() (Router, error) { return brokenRouter{}, nil },
	})
	if err == nil {
		t.Fatal("CheckInvariants accepted an out-of-range router")
	}
	if !strings.Contains(err.Error(), "router broken-router returned member") {
		t.Errorf("err = %v, want an out-of-range routing fault", err)
	}
}

// FuzzCheckInvariants drives the event loop rather than a parser: each
// input picks a scheduler, an admission policy and a router from their
// registries (modulo each name list) plus a fleet of one to twelve members,
// then runs one randomized round of CheckInvariants with every member on
// that scheduler. Any broken invariant or panic fails the input.
func FuzzCheckInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, policy, admission, router, clusters uint8) {
		names := sched.Names()
		name := names[int(policy)%len(names)]
		admissions, routers := AdmissionNames(), RouterNames()
		err := CheckInvariants(admissions[int(admission)%len(admissions)], routers[int(router)%len(routers)],
			CheckConfig{
				SchedulerFactory: func() (sched.Scheduler, error) { return sched.New(name, nil) },
				Seed:             seed,
				Rounds:           1,
				MaxClusters:      1 + int(clusters%12),
			})
		if err != nil {
			t.Fatal(err)
		}
	})
}
