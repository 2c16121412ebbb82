package scenario

import (
	"fmt"

	"dpsim/internal/appmodel"
	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
	"dpsim/internal/federation"
	"dpsim/internal/obs"
	"dpsim/internal/rng"
)

// CellParams identifies one point of the experiment grid plus the seed of
// one replication. Each policy axis is selected by index into the spec's
// list — SchedulerIdx and AppModelIdx into Spec.Schedulers and
// Spec.AppModels, AdmissionIdx and RoutingIdx into the federation block's
// lists (ignored for non-federated specs) — and the zero value selects
// the first entry, as for ArrivalIdx.
type CellParams struct {
	Nodes        int
	Load         float64
	SchedulerIdx int
	ArrivalIdx   int
	// AvailIdx indexes Spec.Availability; any value is the fixed pool
	// when the spec lists no availability processes, and -1 forces it.
	AvailIdx int
	// AppModelIdx is the native baseline for any value when the spec
	// lists no appmodels, and -1 forces it.
	AppModelIdx  int
	AdmissionIdx int
	RoutingIdx   int
	Seed         uint64
	// Probe attaches an observability probe to the run (nil = the
	// zero-cost unobserved path). Attaching one never changes the
	// CellRun: probes receive copies of plain values only.
	Probe obs.Probe
	// MemberProbes optionally attaches one probe per member cluster
	// (index-aligned with the federation block's clusters; a
	// non-federated cell is its own member 0); a nil entry falls back
	// to Probe.
	MemberProbes []obs.Probe
}

// CellRun is the outcome of one simulated replication.
type CellRun struct {
	Result cluster.Result
	// Slowdowns is the per-finished-job bounded slowdown: response time
	// divided by the job's best-case runtime on its own MaxNodes
	// allocation (≥ 1 up to scheduler effects).
	Slowdowns []float64
	// Rejected counts arrivals refused by the admission policy; Routed
	// is the per-member delivered-job count and ClusterResults the
	// per-member results, index-aligned with the federation block's
	// clusters. All zero/nil for non-federated specs.
	Rejected       int
	Routed         []int
	ClusterResults []cluster.Result
}

// pick resolves one policy axis of a cell: the axis entry at idx.
func pick[T any, F family[T]](idx int, axis PolicyList[T, F]) (PolicySpec[T, F], error) {
	if idx < 0 || idx >= len(axis) {
		var f F
		return PolicySpec[T, F]{}, fmt.Errorf("scenario: %s index %d out of range", f.noun(), idx)
	}
	return axis[idx], nil
}

// fleet is one resolved cell: its member clusters and the two policies
// that dispatch arrivals across them.
type fleet struct {
	clusters  []FederationClusterSpec
	admission AdmissionSpec
	routing   RoutingSpec
}

// fleet resolves the cell. A federated spec supplies the members
// directly; a plain cell is lowered to a one-member federation — the
// member is the cell's nodes, scheduler, appmodel and availability
// entry, behind the always / round-robin policies, which pass every job
// through to member 0.
func (s *Spec) fleet(p CellParams) (fleet, error) {
	if f := s.Federation; f != nil {
		adm, err := pick(p.AdmissionIdx, f.Admissions)
		if err != nil {
			return fleet{}, err
		}
		rt, err := pick(p.RoutingIdx, f.Routings)
		return fleet{f.Clusters, adm, rt}, err
	}
	sc, err := pick(p.SchedulerIdx, s.Schedulers)
	if err != nil {
		return fleet{}, err
	}
	member := FederationClusterSpec{Nodes: p.Nodes, Scheduler: &sc}
	if len(s.AppModels) > 0 && p.AppModelIdx >= 0 {
		am, err := pick(p.AppModelIdx, s.AppModels)
		if err != nil {
			return fleet{}, err
		}
		member.AppModel = &am
	}
	if len(s.Availability) > 0 && p.AvailIdx >= 0 {
		if p.AvailIdx >= len(s.Availability) {
			return fleet{}, fmt.Errorf("scenario: availability index %d out of range", p.AvailIdx)
		}
		member.Availability = &s.Availability[p.AvailIdx]
	}
	return fleet{
		clusters:  []FederationClusterSpec{member},
		admission: AdmissionSpec{Name: "always"},
		routing:   RoutingSpec{Name: "round-robin"},
	}, nil
}

// RunCell expands one grid cell into a job stream and drives it through
// the federation tier's step primitives, dispatching each arrival
// through the admission and routing policies as the shared clock reaches
// it — the open-system event loop, and the one cell driver: a
// non-federated cell runs as a one-member federation (fleet), which is
// byte-identical to driving the member cluster.Sim directly.
func (s *Spec) RunCell(p CellParams) (*CellRun, error) {
	fl, err := s.fleet(p)
	if err != nil {
		return nil, err
	}
	clusters := fl.clusters
	admit, err := fl.admission.New()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	router, err := fl.routing.New()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	stream, err := s.Stream(p.ArrivalIdx, p.Nodes, p.Load, p.Seed)
	if err != nil {
		return nil, err
	}
	// The job stream consumes the first two forks of the cell seed
	// (arrival instants, job bodies); each member's capacity timeline
	// takes one further fork in member order, so turning availability on
	// never perturbs the workload itself. Members without availability
	// still consume theirs: one member's timeline never depends on
	// another member's configuration.
	base := rng.New(p.Seed)
	base.Fork()
	base.Fork()
	members := make([]federation.Member, len(clusters))
	models := make([]appmodel.AppModel, len(clusters))
	dt := s.SampleDT(0)
	for i := range clusters {
		c := &clusters[i]
		avRng := base.Fork()
		policy, err := c.Scheduler.New()
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		sim, err := cluster.NewSim(c.Nodes, policy, nil)
		if err != nil {
			return nil, err
		}
		if c.Availability != nil {
			av := *c.Availability
			av.Dir = s.dir
			tl, err := av.Timeline(c.Nodes, avRng)
			if err != nil {
				return nil, err
			}
			if err := sim.SetCapacityTimeline(tl); err != nil {
				return nil, err
			}
		}
		if s.Reconfig != nil {
			err := sim.SetReconfigCost(cluster.ReconfigCost{
				RedistributionSPerNode: s.Reconfig.RedistributionSPerNode,
				LostWorkS:              s.Reconfig.LostWorkS,
			})
			if err != nil {
				return nil, err
			}
		}
		probe := p.Probe
		if i < len(p.MemberProbes) && p.MemberProbes[i] != nil {
			probe = p.MemberProbes[i]
		}
		if probe != nil {
			if err := sim.SetProbe(probe); err != nil {
				return nil, err
			}
			if dt > 0 {
				if err := sim.SetSampleInterval(dt); err != nil {
					return nil, err
				}
			}
		}
		if c.AppModel != nil {
			if models[i], err = c.AppModel.New(); err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
		}
		members[i] = federation.Member{Name: c.Name, Sim: sim}
	}
	fed, err := federation.NewSim(members, admit, router)
	if err != nil {
		return nil, err
	}
	ideal := make(map[int]float64)
	pending, ok := stream.Next()
	for {
		et, evOK := fed.PeekNextEventTime()
		if ok {
			at := eventq.Time(eventq.DurationOf(pending.Arrival))
			if !evOK || at <= et {
				idx, admitted, err := fed.Offer(pending)
				if err != nil {
					return nil, err
				}
				if admitted {
					applyModel(pending, models[idx])
					ideal[pending.ID] = idealRuntime(pending)
					if err := fed.InjectInto(idx, pending); err != nil {
						return nil, err
					}
				}
				pending, ok = stream.Next()
				continue
			}
		}
		if !evOK {
			break
		}
		fed.ProcessNextEvent()
	}
	res := fed.Merged()
	for i := range members {
		if err := members[i].Sim.Err(); err != nil {
			if members[i].Name != "" {
				err = fmt.Errorf("scenario: cluster %s: %w", members[i].Name, err)
			}
			return nil, err
		}
	}
	run := &CellRun{Result: res, Slowdowns: make([]float64, 0, len(res.PerJob))}
	if s.Federation != nil {
		run.Rejected, run.Routed, run.ClusterResults = fed.Rejected(), fed.Routed(), fed.Results()
	}
	for _, j := range res.PerJob {
		if best := ideal[j.ID]; best > 0 {
			run.Slowdowns = append(run.Slowdowns, j.Response/best)
		}
	}
	return run, nil
}

// idealRuntime is the job's runtime with MaxNodes held exclusively for
// every phase — the denominator of the bounded-slowdown metric — under
// the job's performance model when it carries one.
func idealRuntime(j *cluster.Job) float64 {
	var t float64
	for _, ph := range j.Phases {
		rate := ph.Rate(j.MaxNodes)
		if j.Model != nil {
			rate = j.Model.Rate(ph.Work, j.MaxNodes)
		}
		if rate > 0 {
			t += ph.Work / rate
		}
	}
	return t
}
