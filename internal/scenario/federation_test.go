package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dpsim/internal/availability"
)

func synthMix() []MixSpec {
	return []MixSpec{{Kind: "synthetic", Phases: 3, WorkS: 20, Comm: 0.1}}
}

func poissonArrivals() ArrivalList {
	return ArrivalList{{Process: "poisson", MeanInterarrivalS: 4}}
}

// federationGoldenSpecs builds a plain single-cluster spec and the
// equivalent 1-cluster federation, optionally with the same volatile
// availability process on both sides.
func federationGoldenSpecs(t *testing.T, volatile bool) (*Spec, *Spec) {
	t.Helper()
	av := availability.Spec{Process: "failures", MTTFS: 120, MTTRS: 40, HorizonS: 2000}
	plain := &Spec{
		Name: "plain", Nodes: []int{12}, Seed: 7, Jobs: 16,
		Mix:        synthMix(),
		Arrivals:   poissonArrivals(),
		Schedulers: SchedulerList{{Name: "equipartition"}},
		Reconfig:   &ReconfigSpec{RedistributionSPerNode: 0.2, LostWorkS: 2},
	}
	fed := &Spec{
		Name: "fed", Seed: 7, Jobs: 16,
		Mix:      synthMix(),
		Arrivals: poissonArrivals(),
		Reconfig: &ReconfigSpec{RedistributionSPerNode: 0.2, LostWorkS: 2},
		Federation: &FederationSpec{
			Clusters: []FederationClusterSpec{
				{Nodes: 12, Scheduler: &SchedulerSpec{Name: "equipartition"}},
			},
		},
	}
	if volatile {
		plain.Availability = AvailabilityList{av}
		avCopy := av
		fed.Federation.Clusters[0].Availability = &avCopy
	}
	if err := plain.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	return plain, fed
}

// TestFederatedScenarioGolden is the scenario-layer zero-drift pin: a
// 1-cluster federation under the default always-admit + round-robin
// produces a CellRun whose Result and Slowdowns are byte-identical to
// the plain single-cluster path, with and without a volatile capacity
// timeline (both sides draw it from the cell seed's third fork).
func TestFederatedScenarioGolden(t *testing.T) {
	for _, volatile := range []bool{false, true} {
		label := "fixed"
		if volatile {
			label = "volatile"
		}
		t.Run(label, func(t *testing.T) {
			plain, fed := federationGoldenSpecs(t, volatile)
			availIdx := -1
			if volatile {
				availIdx = 0
			}
			pRun, err := plain.RunCell(CellParams{
				Nodes: 12, Load: 1, SchedulerIdx: 0, AvailIdx: availIdx, AppModelIdx: -1, Seed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			fRun, err := fed.RunCell(CellParams{
				Nodes: 12, Load: 1, AvailIdx: availIdx, AppModelIdx: -1, Seed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%+v|%v", pRun.Result, pRun.Slowdowns)
			got := fmt.Sprintf("%+v|%v", fRun.Result, fRun.Slowdowns)
			if got != want {
				t.Errorf("federated cell diverged from plain cell:\n got %s\nwant %s", got, want)
			}
			if fRun.Rejected != 0 {
				t.Errorf("always-admit rejected %d jobs", fRun.Rejected)
			}
			if len(fRun.Routed) != 1 || fRun.Routed[0] != len(fRun.Result.PerJob)+fRun.Result.Unfinished {
				t.Errorf("routed %v inconsistent with result accounting", fRun.Routed)
			}
			if len(fRun.ClusterResults) != 1 {
				t.Fatalf("expected 1 member result, got %d", len(fRun.ClusterResults))
			}
		})
	}
}

// TestFederatedHeterogeneous drives a 2-cluster federation with
// per-member models and availability, checking dispatch accounting and
// determinism of the whole cell.
func TestFederatedHeterogeneous(t *testing.T) {
	spec := &Spec{
		Name: "hetero", Seed: 11, Jobs: 24,
		Mix:      synthMix(),
		Arrivals: poissonArrivals(),
		Federation: &FederationSpec{
			Clusters: []FederationClusterSpec{
				{Name: "small", Nodes: 8, Scheduler: &SchedulerSpec{Name: "equipartition"},
					AppModel: &AppModelSpec{Name: "amdahl", Params: map[string]float64{"f": 0.1}}},
				{Name: "big", Nodes: 16, Scheduler: &SchedulerSpec{Name: "rigid-fcfs"},
					Availability: &availability.Spec{Process: "failures", MTTFS: 200, MTTRS: 50, HorizonS: 2000}},
			},
			Admissions: AdmissionList{{Name: "token-bucket", Params: map[string]float64{"rate": 0.1, "burst": 2}}},
			Routings:   RoutingList{{Name: "least-loaded"}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Nodes; len(got) != 1 || got[0] != 24 {
		t.Fatalf("validate filled nodes %v, want [24]", got)
	}
	run1, err := spec.RunCell(CellParams{Nodes: 24, Load: 1, AvailIdx: -1, AppModelIdx: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	run2, err := spec.RunCell(CellParams{Nodes: 24, Load: 1, AvailIdx: -1, AppModelIdx: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", run1) != fmt.Sprintf("%+v", run2) {
		t.Error("same-seed federated cells diverged")
	}
	routedSum := 0
	for _, r := range run1.Routed {
		routedSum += r
	}
	if routedSum+run1.Rejected != 24 {
		t.Errorf("routed %v + rejected %d != 24 offered", run1.Routed, run1.Rejected)
	}
	if run1.Rejected == 0 {
		t.Error("token-bucket at rate 0.1 rejected nothing — the policy axis is not biting")
	}
	for i, r := range run1.ClusterResults {
		if len(r.PerJob)+r.Unfinished != run1.Routed[i] {
			t.Errorf("member %d: %d finished + %d unfinished != %d routed",
				i, len(r.PerJob), r.Unfinished, run1.Routed[i])
		}
	}
}

// TestFederationValidate exercises the federation block's validation
// rules; every rejection must name the offending key under federation.*.
func TestFederationValidate(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name: "v", Seed: 1, Jobs: 4,
			Mix:      synthMix(),
			Arrivals: poissonArrivals(),
			Federation: &FederationSpec{
				Clusters: []FederationClusterSpec{
					{Nodes: 4, Scheduler: &SchedulerSpec{Name: "equipartition"}},
					{Nodes: 8, Scheduler: &SchedulerSpec{Name: "rigid-fcfs"}},
				},
			},
		}
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.Federation.Clusters[0].Name != "c0" || ok.Federation.Clusters[1].Name != "c1" {
		t.Errorf("default member names = %q, %q", ok.Federation.Clusters[0].Name, ok.Federation.Clusters[1].Name)
	}
	if len(ok.Federation.Admissions) != 1 || ok.Federation.Admissions[0].Name != "always" {
		t.Errorf("default admissions = %+v", ok.Federation.Admissions)
	}
	if len(ok.Federation.Routings) != 1 || ok.Federation.Routings[0].Name != "round-robin" {
		t.Errorf("default routings = %+v", ok.Federation.Routings)
	}
	// Re-validation must be idempotent (the CLIs re-validate on axis
	// overrides).
	if err := ok.Validate(); err != nil {
		t.Fatalf("re-validation: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
		frag string
	}{
		{"no clusters", func(s *Spec) { s.Federation.Clusters = nil }, "federation.clusters"},
		{"zero nodes", func(s *Spec) { s.Federation.Clusters[0].Nodes = 0 }, "federation.clusters[0].nodes"},
		{"no scheduler", func(s *Spec) { s.Federation.Clusters[1].Scheduler = nil }, "federation.clusters[1].scheduler"},
		{"bad scheduler", func(s *Spec) { s.Federation.Clusters[0].Scheduler.Name = "nope" }, "federation.clusters[0].scheduler"},
		{"bad appmodel", func(s *Spec) { s.Federation.Clusters[0].AppModel = &AppModelSpec{Name: "nope"} }, "federation.clusters[0].appmodel"},
		{"dup names", func(s *Spec) {
			s.Federation.Clusters[0].Name = "x"
			s.Federation.Clusters[1].Name = "x"
		}, "not unique"},
		{"spec schedulers", func(s *Spec) { s.Schedulers = SchedulerList{{Name: "equipartition"}} }, "schedulers axis must be absent"},
		{"spec appmodels", func(s *Spec) { s.AppModels = AppModelList{{Name: "amdahl"}} }, "appmodels axis must be absent"},
		{"spec availability", func(s *Spec) {
			s.Availability = AvailabilityList{{Process: "failures", MTTFS: 100, MTTRS: 10, HorizonS: 100}}
		}, "availability axis must be absent"},
		{"wrong nodes", func(s *Spec) { s.Nodes = []int{7} }, "fleet total 12"},
		{"bad admission", func(s *Spec) { s.Federation.Admissions = AdmissionList{{Name: "nope"}} }, "federation.admissions[0]"},
		{"bad routing", func(s *Spec) { s.Federation.Routings = RoutingList{{Name: "nope"}} }, "federation.routings[0]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.frag) {
				t.Errorf("err = %v, want containing %q", err, c.frag)
			}
		})
	}
}

// TestFederationOverrides covers the CLI axis overrides and their
// non-federated rejection.
func TestFederationOverrides(t *testing.T) {
	spec := &Spec{
		Name: "ov", Seed: 1, Jobs: 4,
		Mix:      synthMix(),
		Arrivals: poissonArrivals(),
		Federation: &FederationSpec{
			Clusters: []FederationClusterSpec{{Nodes: 4, Scheduler: &SchedulerSpec{Name: "equipartition"}}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := spec.ApplyOverrides(Overrides{
		Admissions: "always,token-bucket(rate=2,burst=3)",
		Routings:   "weighted(free=2,queue=1),least-loaded",
	}); err != nil {
		t.Fatal(err)
	}
	if len(spec.Federation.Admissions) != 2 || spec.Federation.Admissions[1].Label() != "token-bucket(burst=3,rate=2)" {
		t.Errorf("admission override = %+v", spec.Federation.Admissions)
	}
	if len(spec.Federation.Routings) != 2 || spec.Federation.Routings[0].Label() != "weighted(free=2,queue=1)" {
		t.Errorf("routing override = %+v", spec.Federation.Routings)
	}
	if err := spec.ApplyOverrides(Overrides{Admissions: "nope"}); err == nil {
		t.Error("unknown admission accepted")
	}
	if err := spec.ApplyOverrides(Overrides{Routings: "least-loaded,,round-robin"}); err == nil ||
		!strings.Contains(err.Error(), "empty routing spec") {
		t.Errorf("empty routing entry: %v", err)
	}

	plain := &Spec{
		Name: "p", Nodes: []int{4}, Seed: 1, Jobs: 4,
		Mix:      synthMix(),
		Arrivals: poissonArrivals(),
	}
	if err := plain.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := plain.ApplyOverrides(Overrides{Admissions: "always"}); err == nil ||
		err.Error() != "scenario: -admissions requires a federation block" {
		t.Errorf("non-federated -admissions: %v", err)
	}
	if err := plain.ApplyOverrides(Overrides{Routings: "round-robin"}); err == nil ||
		err.Error() != "scenario: -routings requires a federation block" {
		t.Errorf("non-federated -routings: %v", err)
	}
}

// TestCanonicalFederation pins the canonical blobs' independence: the
// topology blob ignores the policy axes, and the policy blobs are the
// round-trippable registry labels.
func TestCanonicalFederation(t *testing.T) {
	_, fed := federationGoldenSpecs(t, false)
	blob := string(fed.CanonicalFederation())
	for _, frag := range []string{`"name":"c0"`, `"nodes":12`, `"scheduler":"equipartition"`, `"appmodel":"mix"`} {
		if !strings.Contains(blob, frag) {
			t.Errorf("CanonicalFederation() = %s, missing %s", blob, frag)
		}
	}
	if err := fed.ApplyOverrides(Overrides{Admissions: "token-bucket(rate=2)"}); err != nil {
		t.Fatal(err)
	}
	if got := string(fed.CanonicalFederation()); got != blob {
		t.Errorf("topology blob changed with the admission axis:\n %s\n %s", got, blob)
	}
	if got := string(fed.CanonicalAdmission(0)); got != "token-bucket(rate=2)" {
		t.Errorf("CanonicalAdmission = %q", got)
	}
	if got := string(fed.CanonicalRouting(0)); got != "round-robin" {
		t.Errorf("CanonicalRouting = %q", got)
	}
}

// FuzzFederation hammers the scenario's "federation" block: the fuzz
// input is spliced in as the block's JSON value inside an otherwise
// valid scenario. Decoding must never panic, a spec that validates must
// carry resolved policy axes whose labels round-trip, and a block that
// decodes but fails validation must produce an error naming a
// federation.* key (or the axis-conflict rules).
func FuzzFederation(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"clusters":[{"nodes":4,"scheduler":"equipartition"}]}`),
		[]byte(`{"clusters":[{"name":"a","nodes":4,"scheduler":"equipartition"},` +
			`{"name":"b","nodes":8,"scheduler":{"name":"malleable-hysteresis","params":{"epoch_s":45}},` +
			`"appmodel":"amdahl(f=0.1)","availability":{"process":"failures","mttf_s":200,"mttr_s":50,"horizon_s":2000}}],` +
			`"admissions":["always","token-bucket(rate=0.5,burst=4)"],"routings":["least-loaded","weighted(free=2,queue=1)"]}`),
		[]byte(`{"clusters":[{"nodes":0,"scheduler":"equipartition"}]}`),
		[]byte(`{"clusters":[{"nodes":4}]}`),
		[]byte(`{"clusters":[],"admissions":"always"}`),
		[]byte(`{"clusters":[{"nodes":4,"scheduler":"nope"}]}`),
		[]byte(`{"clusters":[{"nodes":4,"scheduler":"equipartition"}],"admissions":[{"name":"quota","params":{"tenants":2}}]}`),
		[]byte(`{"clusters":[{"nodes":4,"scheduler":"equipartition"}],"routings":["weighted(free=NaN)"]}`),
		[]byte(`null`),
		[]byte(`[`),
		[]byte(`"clusters"`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		data := []byte(`{"name":"fz","seed":1,"jobs":4,` +
			`"mix":[{"kind":"synthetic","phases":1,"work_s":1}],` +
			`"arrivals":{"process":"poisson","mean_interarrival_s":5},` +
			`"federation":` + string(block) + `}`)
		spec, err := Parse(data)
		if err != nil {
			// A non-null block that decodes on its own but fails
			// validation must be reported against the federation schema,
			// not a generic message.
			var fs *FederationSpec
			if json.Unmarshal(block, &fs) == nil && fs != nil && !strings.Contains(err.Error(), "federation") {
				t.Fatalf("invalid federation block rejected without naming federation: %v", err)
			}
			return
		}
		if spec.Federation == nil {
			return // "federation": null — a plain scenario
		}
		fed := spec.Federation
		if len(fed.Admissions) == 0 || len(fed.Routings) == 0 {
			t.Fatalf("validated federation has empty policy axes: %+v", fed)
		}
		for i := range fed.Admissions {
			label := fed.Admissions[i].Label()
			var list AdmissionList
			if err := list.set(label); err != nil || len(list) != 1 || list[0].Label() != label {
				t.Fatalf("admission label %q does not round-trip: %v %v", label, list, err)
			}
		}
		for i := range fed.Routings {
			label := fed.Routings[i].Label()
			var list RoutingList
			if err := list.set(label); err != nil || len(list) != 1 || list[0].Label() != label {
				t.Fatalf("routing label %q does not round-trip: %v %v", label, list, err)
			}
		}
		if len(spec.Nodes) != 1 || spec.Nodes[0] != fed.TotalNodes() {
			t.Fatalf("validated federation nodes %v != fleet total %d", spec.Nodes, fed.TotalNodes())
		}
		_ = spec.CanonicalFederation()
	})
}

// TestPlainCellLeavesFederatedFieldsZero: a non-federated cell runs
// through the federation tier as a one-member fleet, but its CellRun
// must not show it — the federated-only fields stay zero/nil (sweep's
// fold and the bench mirror's DeepEqual both rely on it), with and
// without a capacity timeline. TestFederatedScenarioGolden above now
// compares two routes through the one driver; the independent pins of
// the lowering are TestRunCellMatchesClosedSim, the goldens and
// federation.TestSingleClusterGolden.
func TestPlainCellLeavesFederatedFieldsZero(t *testing.T) {
	for _, volatile := range []bool{false, true} {
		plain, _ := federationGoldenSpecs(t, volatile)
		availIdx := -1
		if volatile {
			availIdx = 0
		}
		run, err := plain.RunCell(CellParams{Nodes: 12, Load: 1, AvailIdx: availIdx, AppModelIdx: -1, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Result.PerJob) == 0 || (volatile && run.Result.CapacityEvents == 0) {
			t.Fatalf("volatile=%v: cell did not exercise the driver: %+v", volatile, run.Result)
		}
		if run.Rejected != 0 || run.Routed != nil || run.ClusterResults != nil {
			t.Errorf("volatile=%v: plain cell leaked federated fields: rejected=%d routed=%v members=%d",
				volatile, run.Rejected, run.Routed, len(run.ClusterResults))
		}
	}
}
