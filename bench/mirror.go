package main

import (
	"fmt"
	"runtime"

	"dpsim/internal/appmodel"
	"dpsim/internal/cluster"
	"dpsim/internal/eventq"
	"dpsim/internal/federation"
	"dpsim/internal/rng"
	"dpsim/internal/scenario"
	"dpsim/internal/sched"
	"dpsim/internal/sweep"
)

// mirror drives grid cells the way scenario.RunCell and its federated
// twin do — same calls, same order, public API only — with a timer pair
// around each call into a layer. Every traced cell is checked against
// Spec.RunCell once (replication 0), so the mirror cannot drift from the
// driver the CLIs run. It does not resolve relative availability-trace
// paths (Spec.dir is private); no benchmark workload replays a trace.
type mirror struct {
	tr *tracer

	// Exact counts over the traced pass: simulated statistics a pure
	// speed-up must leave identical.
	runs, generated, rejected     int64
	availChanges, availRuns       int64
	reallocations, capacityEvents int64
	lostWorkS                     float64
	mallocs                       uint64
	// activeHist[n] counts scheduler invocations that saw n active jobs.
	activeHist []int64
}

// timedSched brackets sched.Scheduler.Allocate and samples the active
// set it was shown.
type timedSched struct {
	inner sched.Scheduler
	t     *callTimer
	m     *mirror
}

func (s *timedSched) Name() string { return s.inner.Name() }

func (s *timedSched) Allocate(st sched.State, out []int) {
	t0 := nanos()
	s.inner.Allocate(st, out)
	s.t.add(t0, nanos())
	n := len(st.Active)
	for len(s.m.activeHist) <= n {
		s.m.activeHist = append(s.m.activeHist, 0)
	}
	s.m.activeHist[n]++
}

type timedAdmission struct {
	inner federation.Admission
	t     *callTimer
}

func (a *timedAdmission) Name() string { return a.inner.Name() }

func (a *timedAdmission) Admit(now float64, j *cluster.Job) bool {
	t0 := nanos()
	ok := a.inner.Admit(now, j)
	a.t.add(t0, nanos())
	return ok
}

type timedRouter struct {
	inner federation.Router
	t     *callTimer
}

func (r *timedRouter) Name() string { return r.inner.Name() }

func (r *timedRouter) Route(now float64, j *cluster.Job, views []federation.ClusterView) int {
	t0 := nanos()
	idx := r.inner.Route(now, j, views)
	r.t.add(t0, nanos())
	return idx
}

// runID names one replication in the span file.
func runID(h sweep.CellHash, rep int) string { return fmt.Sprintf("%s/%d", h.String()[:16], rep) }

// runSeed reproduces sweep's replication-seed derivation (unexported
// there): a pure function of the cell hash and the replication index.
// TestMirrorMatchesSweep pins it against sweep.Run's exported aggregates.
func runSeed(h sweep.CellHash, rep int) uint64 {
	s := rng.New(h.Seed64() ^ (uint64(rep+1) * 0x9e3779b97f4a7c15)).Uint64()
	return rng.New(s ^ 0xbf58476d1ce4e5b9).Uint64()
}

// cellParams is the CellParams sweep hands Spec.RunCell for this cell.
func cellParams(c sweep.Cell, seed uint64) scenario.CellParams {
	return scenario.CellParams{
		Nodes: c.Nodes, Load: c.Load,
		SchedulerIdx: c.SchedulerIdx, ArrivalIdx: c.ArrivalIdx, AvailIdx: c.AvailIdx,
		AppModelIdx: c.AppModelIdx, AdmissionIdx: c.AdmissionIdx, RoutingIdx: c.RoutingIdx,
		Seed: seed,
	}
}

// idealRuntime and applyModel restate two unexported scenario helpers
// the drive loop needs (bounded-slowdown denominator; per-member model
// override); the RunCell equality check covers both.
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

func applyModel(j *cluster.Job, m appmodel.AppModel) {
	if m == nil {
		return
	}
	if cf, ok := m.(appmodel.CommFactor); ok && cf.Costs == (appmodel.Costs{}) {
		for i := range j.Phases {
			j.Phases[i].Comm = cf.C
		}
		return
	}
	j.Model = m
}

func reconfigOf(spec *scenario.Spec) cluster.ReconfigCost {
	return cluster.ReconfigCost{
		RedistributionSPerNode: spec.Reconfig.RedistributionSPerNode,
		LostWorkS:              spec.Reconfig.LostWorkS,
	}
}

// runCell simulates one replication of one cell under the tracer.
func (m *mirror) runCell(spec *scenario.Spec, c sweep.Cell, seed uint64, run string) (*scenario.CellRun, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	root := m.tr.open("scenario.run", run, -1)
	var out *scenario.CellRun
	var err error
	if spec.Federation != nil {
		out, err = m.runFederated(spec, c, seed, run, root)
	} else {
		out, err = m.runPlain(spec, c, seed, run, root)
	}
	m.tr.close(root)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - before
	m.runs++
	m.rejected += int64(out.Rejected)
	m.reallocations += int64(out.Result.Reallocations)
	m.capacityEvents += int64(out.Result.CapacityEvents)
	m.lostWorkS += out.Result.LostWorkS
	return out, nil
}

// stream opens the cell's job stream and returns it with the timer that
// also accumulates every later Next call.
func (m *mirror) stream(spec *scenario.Spec, c sweep.Cell, seed uint64) (*scenario.JobStream, *callTimer, error) {
	t := &callTimer{}
	t0 := nanos()
	st, err := spec.Stream(c.ArrivalIdx, c.Nodes, c.Load, seed)
	t.add(t0, nanos())
	return st, t, err
}

func (m *mirror) next(st *scenario.JobStream, t *callTimer) (*cluster.Job, bool) {
	t0 := nanos()
	j, ok := st.Next()
	t.add(t0, nanos())
	if ok {
		m.generated++
	}
	return j, ok
}

func slowdowns(res cluster.Result, ideal map[int]float64) []float64 {
	out := make([]float64, 0, len(res.PerJob))
	for _, j := range res.PerJob {
		if best := ideal[j.ID]; best > 0 {
			out = append(out, j.Response/best)
		}
	}
	return out
}

func (m *mirror) runPlain(spec *scenario.Spec, c sweep.Cell, seed uint64, run string, root int) (*scenario.CellRun, error) {
	var alloc, inject, step callTimer
	policy, err := spec.Schedulers[c.SchedulerIdx].New()
	if err != nil {
		return nil, err
	}
	var model appmodel.AppModel
	if len(spec.AppModels) > 0 && c.AppModelIdx >= 0 {
		if model, err = spec.AppModels[c.AppModelIdx].New(); err != nil {
			return nil, err
		}
	}
	st, streamT, err := m.stream(spec, c, seed)
	if err != nil {
		return nil, err
	}
	st.SetAppModel(model)
	t0 := nanos()
	sim, err := cluster.NewSim(c.Nodes, &timedSched{inner: policy, t: &alloc, m: m}, nil)
	m.tr.once("cluster.new", run, root, t0, nanos())
	if err != nil {
		return nil, err
	}
	if len(spec.Availability) > 0 && c.AvailIdx >= 0 {
		base := rng.New(seed)
		base.Fork()
		base.Fork()
		t0 := nanos()
		changes, err := spec.Availability[c.AvailIdx].Generate(c.Nodes, base.Fork())
		m.tr.once("availability.generate", run, root, t0, nanos())
		if err != nil {
			return nil, err
		}
		m.availChanges += int64(len(changes))
		m.availRuns++
		if err := sim.SetCapacityChanges(changes); err != nil {
			return nil, err
		}
	}
	if spec.Reconfig != nil {
		if err := sim.SetReconfigCost(reconfigOf(spec)); err != nil {
			return nil, err
		}
	}
	ideal := make(map[int]float64)
	pending, ok := m.next(st, streamT)
	for {
		// Peek is two loads; a timer pair around it would cost more than
		// the call and inflate every short run, so it goes untimed here.
		et, evOK := sim.PeekNextEventTime()
		if ok {
			at := eventq.Time(eventq.DurationOf(pending.Arrival))
			if !evOK || at <= et {
				ideal[pending.ID] = idealRuntime(pending)
				t0 := nanos()
				err := sim.Inject(pending)
				inject.add(t0, nanos())
				if err != nil {
					return nil, err
				}
				pending, ok = m.next(st, streamT)
				continue
			}
		}
		if !evOK {
			break
		}
		t0 := nanos()
		sim.ProcessNextEvent()
		step.add(t0, nanos())
	}
	t0 = nanos()
	res := sim.Result()
	m.tr.once("cluster.result", run, root, t0, nanos())
	m.tr.calls("scenario.stream", run, root, streamT)
	m.tr.calls("cluster.inject", run, root, &inject)
	stepSpan := m.tr.calls("cluster.step", run, root, &step)
	m.tr.calls("sched.allocate", run, stepSpan, &alloc)
	return &scenario.CellRun{Result: res, Slowdowns: slowdowns(res, ideal)}, nil
}

func (m *mirror) runFederated(spec *scenario.Spec, c sweep.Cell, seed uint64, run string, root int) (*scenario.CellRun, error) {
	var alloc, admitT, routeT, offer, inject, peek, step, avail, newSim callTimer
	f := spec.Federation
	admit, err := f.Admissions[c.AdmissionIdx].New()
	if err != nil {
		return nil, err
	}
	router, err := f.Routings[c.RoutingIdx].New()
	if err != nil {
		return nil, err
	}
	st, streamT, err := m.stream(spec, c, seed)
	if err != nil {
		return nil, err
	}
	base := rng.New(seed)
	base.Fork()
	base.Fork()
	members := make([]federation.Member, len(f.Clusters))
	models := make([]appmodel.AppModel, len(f.Clusters))
	for i := range f.Clusters {
		fc := &f.Clusters[i]
		avRng := base.Fork()
		policy, err := fc.Scheduler.New()
		if err != nil {
			return nil, err
		}
		t0 := nanos()
		sim, err := cluster.NewSim(fc.Nodes, &timedSched{inner: policy, t: &alloc, m: m}, nil)
		newSim.add(t0, nanos())
		if err != nil {
			return nil, err
		}
		if fc.Availability != nil {
			t0 := nanos()
			changes, err := fc.Availability.Generate(fc.Nodes, avRng)
			avail.add(t0, nanos())
			if err != nil {
				return nil, err
			}
			m.availChanges += int64(len(changes))
			if err := sim.SetCapacityChanges(changes); err != nil {
				return nil, err
			}
		}
		if spec.Reconfig != nil {
			if err := sim.SetReconfigCost(reconfigOf(spec)); err != nil {
				return nil, err
			}
		}
		if fc.AppModel != nil {
			if models[i], err = fc.AppModel.New(); err != nil {
				return nil, err
			}
		}
		members[i] = federation.Member{Name: fc.Name, Sim: sim}
	}
	m.availRuns++
	t0 := nanos()
	fed, err := federation.NewSim(members,
		&timedAdmission{inner: admit, t: &admitT}, &timedRouter{inner: router, t: &routeT})
	m.tr.once("federation.new", run, root, t0, nanos())
	if err != nil {
		return nil, err
	}
	ideal := make(map[int]float64)
	pending, ok := m.next(st, streamT)
	for {
		t0 := nanos()
		et, evOK := fed.PeekNextEventTime()
		peek.add(t0, nanos())
		if ok {
			at := eventq.Time(eventq.DurationOf(pending.Arrival))
			if !evOK || at <= et {
				t0 := nanos()
				idx, admitted, err := fed.Offer(pending)
				offer.add(t0, nanos())
				if err != nil {
					return nil, err
				}
				if admitted {
					applyModel(pending, models[idx])
					ideal[pending.ID] = idealRuntime(pending)
					t0 := nanos()
					err := fed.InjectInto(idx, pending)
					inject.add(t0, nanos())
					if err != nil {
						return nil, err
					}
				}
				pending, ok = m.next(st, streamT)
				continue
			}
		}
		if !evOK {
			break
		}
		t0 = nanos()
		fed.ProcessNextEvent()
		step.add(t0, nanos())
	}
	t0 = nanos()
	res := fed.Merged()
	m.tr.once("federation.merged", run, root, t0, nanos())
	m.tr.calls("scenario.stream", run, root, streamT)
	m.tr.calls("availability.generate", run, root, &avail)
	m.tr.calls("cluster.new", run, root, &newSim)
	m.tr.calls("federation.peek", run, root, &peek)
	offerSpan := m.tr.calls("federation.offer", run, root, &offer)
	m.tr.calls("federation.admit", run, offerSpan, &admitT)
	m.tr.calls("federation.route", run, offerSpan, &routeT)
	m.tr.calls("cluster.inject", run, root, &inject)
	stepSpan := m.tr.calls("federation.step", run, root, &step)
	m.tr.calls("sched.allocate", run, stepSpan, &alloc)
	return &scenario.CellRun{
		Result:         res,
		Slowdowns:      slowdowns(res, ideal),
		Rejected:       fed.Rejected(),
		Routed:         fed.Routed(),
		ClusterResults: fed.Results(),
	}, nil
}

// activeQuantiles returns the median and the maximum active-set size
// over every scheduler invocation of the traced pass.
func (m *mirror) activeQuantiles() (p50, max int) {
	var n int64
	for _, k := range m.activeHist {
		n += k
	}
	var seen int64
	p50 = -1
	for size, k := range m.activeHist {
		if k == 0 {
			continue
		}
		seen += k
		if p50 < 0 && 2*seen >= n {
			p50 = size
		}
		max = size
	}
	if p50 < 0 {
		p50 = 0
	}
	return p50, max
}
