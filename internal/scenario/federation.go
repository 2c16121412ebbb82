package scenario

import (
	"fmt"

	"dpsim/internal/availability"
)

// FederationSpec is the scenario's "federation" block: it turns the run
// into a multi-cluster experiment where one shared arrival stream is
// dispatched across heterogeneous member clusters through admission and
// routing policies (internal/federation).
//
// A federated spec fixes the cluster topology per cell — the member
// clusters replace the spec-level nodes/schedulers/appmodels/
// availability axes, which must be absent — while admissions × routings
// become the policy axes of the grid. The spec-level loads and arrivals
// axes apply unchanged: the stream is generated for the fleet's total
// node count, then dispatched job by job.
type FederationSpec struct {
	// Clusters lists the member clusters (at least one).
	Clusters []FederationClusterSpec `json:"clusters"`
	// Admissions lists the admission-policy axis (federation registry
	// specs; default ["always"]). The JSON value may be a single entry
	// or an array.
	Admissions AdmissionList `json:"admissions,omitempty"`
	// Routings lists the routing-policy axis (default ["round-robin"]).
	Routings RoutingList `json:"routings,omitempty"`
}

// FederationClusterSpec configures one member cluster.
type FederationClusterSpec struct {
	// Name labels the member in telemetry, traces and exports; default
	// "c<index>". Names must be unique within the federation.
	Name string `json:"name,omitempty"`
	// Nodes is the member's pool size (> 0, required).
	Nodes int `json:"nodes"`
	// Scheduler is the member's scheduling policy (required — members
	// are heterogeneous, so there is no sensible shared default).
	Scheduler *SchedulerSpec `json:"scheduler"`
	// AppModel optionally overrides the performance model of every job
	// routed to this member; absent keeps the mix's native models.
	AppModel *AppModelSpec `json:"appmodel,omitempty"`
	// Availability optionally gives the member its own capacity
	// timeline; absent means the member's pool never changes.
	Availability *availability.Spec `json:"availability,omitempty"`
}

// TotalNodes sums the member pool sizes.
func (f *FederationSpec) TotalNodes() int {
	total := 0
	for _, c := range f.Clusters {
		total += c.Nodes
	}
	return total
}

// validate checks the federation block, fills defaults (member names,
// the always/round-robin policy axes) and canonicalizes policy names.
// Error messages name the offending JSON key under "federation.".
func (f *FederationSpec) validate(s *Spec) error {
	if len(f.Clusters) == 0 {
		return fmt.Errorf("federation.clusters must list at least one cluster")
	}
	names := make(map[string]bool, len(f.Clusters))
	for i := range f.Clusters {
		c := &f.Clusters[i]
		if c.Name == "" {
			c.Name = fmt.Sprintf("c%d", i)
		}
		if names[c.Name] {
			return fmt.Errorf("federation.clusters[%d].name %q is not unique", i, c.Name)
		}
		names[c.Name] = true
		if c.Nodes <= 0 {
			return fmt.Errorf("federation.clusters[%d].nodes must be > 0, got %d", i, c.Nodes)
		}
		if c.Scheduler == nil {
			return fmt.Errorf("federation.clusters[%d].scheduler is required", i)
		}
		if err := c.Scheduler.validate(); err != nil {
			return fmt.Errorf("federation.clusters[%d].scheduler: %w", i, err)
		}
		if c.AppModel != nil {
			if err := c.AppModel.validate(); err != nil {
				return fmt.Errorf("federation.clusters[%d].appmodel: %w", i, err)
			}
		}
		if c.Availability != nil {
			if err := c.Availability.Validate(); err != nil {
				return fmt.Errorf("federation.clusters[%d].availability: %w", i, err)
			}
		}
	}
	// The member clusters fix the topology: the spec-level axes they
	// replace must not also be present, or the grid would be ambiguous.
	if len(s.Schedulers) > 0 {
		return fmt.Errorf("federation.clusters carry the schedulers; the spec-level schedulers axis must be absent")
	}
	if len(s.AppModels) > 0 {
		return fmt.Errorf("federation.clusters carry the appmodels; the spec-level appmodels axis must be absent")
	}
	if len(s.Availability) > 0 {
		return fmt.Errorf("federation.clusters carry the availability; the spec-level availability axis must be absent")
	}
	total := f.TotalNodes()
	switch {
	case len(s.Nodes) == 0:
		s.Nodes = []int{total}
	case len(s.Nodes) != 1 || s.Nodes[0] != total:
		return fmt.Errorf("federation fixes nodes to the fleet total %d; drop the spec-level nodes axis or set it to [%d]", total, total)
	}
	if len(f.Admissions) == 0 {
		f.Admissions = AdmissionList{{Name: "always"}}
	}
	for i := range f.Admissions {
		if err := f.Admissions[i].validate(); err != nil {
			return fmt.Errorf("federation.admissions[%d]: %w", i, err)
		}
	}
	if len(f.Routings) == 0 {
		f.Routings = RoutingList{{Name: "round-robin"}}
	}
	for i := range f.Routings {
		if err := f.Routings[i].validate(); err != nil {
			return fmt.Errorf("federation.routings[%d]: %w", i, err)
		}
	}
	return nil
}

// canonicalCluster is the canonical form of one member cluster: policy
// specs collapse to their sorted-parameter labels.
type canonicalCluster struct {
	Name         string             `json:"name"`
	Nodes        int                `json:"nodes"`
	Scheduler    string             `json:"scheduler"`
	AppModel     string             `json:"appmodel"`
	Availability *availability.Spec `json:"availability"`
}

// CanonicalFederation serializes the resolved member-cluster topology —
// the cell-shared part of a federated cell's identity. The admission and
// routing axes are separate hash sections (CanonicalAdmission /
// CanonicalRouting), so editing one policy list never re-seeds cells of
// the other.
func (s *Spec) CanonicalFederation() []byte {
	f := s.Federation
	clusters := make([]canonicalCluster, len(f.Clusters))
	for i, c := range f.Clusters {
		cc := canonicalCluster{
			Name: c.Name, Nodes: c.Nodes,
			Scheduler:    c.Scheduler.Label(),
			AppModel:     MixModel,
			Availability: c.Availability,
		}
		if c.AppModel != nil {
			cc.AppModel = c.AppModel.Label()
		}
		clusters[i] = cc
	}
	return mustJSON(clusters)
}

// CanonicalAdmission serializes one admission-policy spec: the registry
// label with sorted parameters.
func (s *Spec) CanonicalAdmission(i int) []byte {
	return []byte(s.Federation.Admissions[i].Label())
}

// CanonicalRouting serializes one routing-policy spec.
func (s *Spec) CanonicalRouting(i int) []byte {
	return []byte(s.Federation.Routings[i].Label())
}
