// Package scenario is the declarative workload layer over the malleable
// cluster simulator (internal/cluster): JSON scenario files describe the
// cluster sizes, scheduler policies, job mixes and arrival processes of an
// experiment, and the package expands them into fully deterministic job
// streams driven through the cluster simulator's step primitives.
//
// A scenario file names the dimensions of an experiment grid — nodes ×
// load × arrival process × availability process × scheduler — which
// internal/sweep expands and runs in parallel. Every random choice flows
// through forked internal/rng streams keyed on (seed, cell, replication,
// job), so results are bit-reproducible regardless of execution order or
// worker count.
//
// Supported arrival processes: closed job lists (all at t=0 or explicit
// instants), open Poisson, bursty MMPP-2 (a two-state Markov-modulated
// Poisson process), diurnal (a nonhomogeneous Poisson process with a
// sinusoidal rate curve, sampled by thinning), and trace replay from the
// job CSVs of internal/trace.
//
// Supported job mixes: LU-profile jobs (per-iteration work from the
// paper's LU cost model), synthetic uniform-phase jobs with optional
// log-normal work noise, and stencil-derived jobs (Jacobi heat-diffusion
// compute/halo cost ratios from internal/stencil's model).
//
// Scenarios may additionally declare node-availability processes
// (internal/availability: maintenance windows, failures, spot
// preemption, churn, capacity-trace replay) as another grid axis, plus a
// reconfiguration-cost model priced by the cluster simulator.
//
// A scenario may also declare an application performance-model axis
// ("appmodels", internal/appmodel): each entry overrides every job's
// speedup response — Amdahl, Downey A–σ, comm-bound, roofline, fixed —
// while "mix" keeps the components' native models. The job mixes
// themselves are registry-backed: their comm factors are the registered
// lu/synthetic/stencil models' curves, lowered onto the phases' Comm
// field (the simulator's inlined fast path), bit-identically.
//
// See docs/scenario.md for the complete JSON schema reference.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dpsim/internal/appmodel"
	"dpsim/internal/availability"
	"dpsim/internal/obs"
	"dpsim/internal/sched"
)

// Spec is a declarative scenario: the experiment grid and its workload.
type Spec struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Nodes lists the cluster sizes of the grid (at least one).
	Nodes []int `json:"nodes"`
	// Loads lists offered-load multipliers applied to the arrival rate
	// (default {1}). Load 2 halves mean inter-arrival times; for trace
	// replay it compresses the trace's time axis by the same factor.
	Loads []float64 `json:"loads,omitempty"`
	// Schedulers lists the scheduling policies of the grid. Each entry is
	// a bare policy name ("equipartition") or spec string
	// ("malleable-hysteresis(epoch_s=45,min_delta=2)"), or an object with
	// construction parameters ({"name": "malleable-hysteresis",
	// "params": {"epoch_s": 45, "min_delta": 2}}); valid names are
	// sched.Names(). Empty means every registered policy with default
	// parameters.
	Schedulers SchedulerList `json:"schedulers,omitempty"`
	// Seed is the master seed; every cell and replication derives its own
	// independent stream from it.
	Seed uint64 `json:"seed"`
	// Jobs bounds the number of generated jobs per run (ignored for
	// closed lists with explicit times and for trace replay, which carry
	// their own counts unless Jobs further truncates them).
	Jobs int `json:"jobs,omitempty"`
	// HorizonS optionally stops generating arrivals past this virtual
	// instant (0 = no horizon). Jobs already admitted still run to
	// completion.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// Mix is the job-body distribution sampled for generated arrivals.
	// Required unless every arrival process is a trace replay.
	Mix []MixSpec `json:"mix,omitempty"`
	// Arrivals lists the arrival processes of the grid. The JSON value
	// may be a single object or an array.
	Arrivals ArrivalList `json:"arrivals"`
	// Availability lists node-availability processes forming another grid
	// axis (availability.Spec schema: maintenance windows, failures, spot
	// preemption, churn, capacity-trace replay; "none" is the fixed-pool
	// baseline). Empty means the pool never changes. The JSON value may
	// be a single object or an array.
	Availability AvailabilityList `json:"availability,omitempty"`
	// AppModels lists application performance models forming another
	// grid axis (internal/appmodel registry). Each entry is a bare model
	// name or spec string ("amdahl(f=0.1)") or a {"name", "params"}
	// object; the sentinel "mix" is the native baseline where every mix
	// component keeps its own registered model. Empty means native
	// models only (no extra axis). The JSON value may be a single entry
	// or an array.
	AppModels AppModelList `json:"appmodels,omitempty"`
	// Reconfig prices dynamic reconfiguration (applies to every cell);
	// nil means reconfiguration is free, the classic simulator.
	Reconfig *ReconfigSpec `json:"reconfig,omitempty"`
	// Observe tunes the observability layer (internal/obs) for runs of
	// this scenario: the time-series sample interval and the recorders'
	// ring bounds. The CLIs' export flags decide whether a run is observed
	// at all; an unobserved run attaches no probe (the zero-cost path).
	Observe *ObserveSpec `json:"observe,omitempty"`
	// Federation turns the scenario into a multi-cluster experiment: the
	// block's member clusters replace the spec-level nodes, schedulers,
	// appmodels and availability axes (which must then be absent), and
	// its admission × routing policy lists become grid axes instead. nil
	// is the classic single-cluster scenario.
	Federation *FederationSpec `json:"federation,omitempty"`

	// dir is the directory of the scenario file, for resolving relative
	// trace paths; empty for in-memory specs.
	dir string
}

// ObserveSpec is the scenario's "observe" block: the observability
// layer's knobs. Samples ride the simulator's event queue but mutate
// nothing, so enabling observation never changes a Result or a golden
// output.
type ObserveSpec struct {
	// SampleDTS is the fixed time-series sample interval in virtual
	// seconds; 0 leaves the choice to the caller (dpssweep defaults to
	// 1s, and writes its -sample-dt here).
	SampleDTS float64 `json:"sample_dt_s,omitempty"`
	// MaxSamples, MaxSpans and MaxEvents bound the recorder's ring
	// buffers (0 = the internal/obs defaults).
	MaxSamples int `json:"max_samples,omitempty"`
	// MaxSpans bounds the retained per-job spans.
	MaxSpans int `json:"max_spans,omitempty"`
	// MaxEvents bounds the capacity/preemption/charge event logs.
	MaxEvents int `json:"max_events,omitempty"`
}

// SampleDT resolves a run's time-series sample interval in virtual
// seconds: the observe block's sample_dt_s when set, else fallback.
func (s *Spec) SampleDT(fallback float64) float64 {
	if s.Observe != nil && s.Observe.SampleDTS != 0 {
		return s.Observe.SampleDTS
	}
	return fallback
}

// validate checks the observe block; error messages name the offending
// JSON key so scenario authors can fix the file directly.
func (o *ObserveSpec) validate() error {
	if o.SampleDTS < 0 {
		return fmt.Errorf("observe.sample_dt_s must be >= 0, got %g", o.SampleDTS)
	}
	if o.MaxSamples < 0 {
		return fmt.Errorf("observe.max_samples must be >= 0, got %d", o.MaxSamples)
	}
	if o.MaxSpans < 0 {
		return fmt.Errorf("observe.max_spans must be >= 0, got %d", o.MaxSpans)
	}
	if o.MaxEvents < 0 {
		return fmt.Errorf("observe.max_events must be >= 0, got %d", o.MaxEvents)
	}
	return nil
}

// RecorderConfig translates the block into the recorder bounds, naming
// the run with the given label; a nil block keeps the internal/obs
// defaults.
func (o *ObserveSpec) RecorderConfig(label string) obs.Config {
	if o == nil {
		return obs.Config{Label: label}
	}
	return obs.Config{
		Label:      label,
		MaxSamples: o.MaxSamples,
		MaxSpans:   o.MaxSpans,
		MaxEvents:  o.MaxEvents,
	}
}

// ReconfigSpec is the JSON form of cluster.ReconfigCost.
type ReconfigSpec struct {
	// RedistributionSPerNode pauses a resized job this many seconds per
	// node of allocation delta (data redistribution).
	RedistributionSPerNode float64 `json:"redistribution_s_per_node,omitempty"`
	// LostWorkS is the in-phase progress (work-seconds) lost per node
	// reclaimed by an abrupt capacity drop.
	LostWorkS float64 `json:"lost_work_s,omitempty"`
}

// AvailabilityList unmarshals from either a single JSON object or an
// array of objects, like ArrivalList.
type AvailabilityList []availability.Spec

// UnmarshalJSON implements json.Unmarshaler.
func (l *AvailabilityList) UnmarshalJSON(data []byte) (err error) {
	*l, err = oneOrMany[availability.Spec](data)
	return err
}

// MixSpec is one weighted component of the job mix.
type MixSpec struct {
	// Kind selects the generator: "lu", "synthetic" or "stencil".
	Kind string `json:"kind"`
	// Weight is the sampling weight (default 1).
	Weight float64 `json:"weight,omitempty"`
	// MaxNodes caps the job's allocation; 0 draws uniformly from
	// [2, nodes] (or the full cluster when it has ≤ 2 nodes).
	MaxNodes int `json:"max_nodes,omitempty"`
	// JobWeight is the fair-share weight carried by jobs drawn from this
	// mix component (default 1): proportional-share policies grant a
	// weight-2 job twice the share of a weight-1 job. Policies that are
	// not share-based ignore it.
	JobWeight float64 `json:"job_weight,omitempty"`

	// lu: matrix size N and block size R (R must divide N). Zero N picks
	// randomly from the paper's standard sizes.
	N int `json:"n,omitempty"`
	R int `json:"r,omitempty"`

	// synthetic: Phases uniform phases totalling WorkS serial seconds
	// with communication factor Comm; CV adds log-normal noise with that
	// coefficient of variation to the total work.
	Phases int     `json:"phases,omitempty"`
	WorkS  float64 `json:"work_s,omitempty"`
	Comm   float64 `json:"comm,omitempty"`
	CV     float64 `json:"cv,omitempty"`

	// stencil: GridN×GridN Jacobi grid for Iterations sweeps on nodes of
	// FlopsPerSec (default 63e6, the paper's UltraSparc II).
	GridN       int     `json:"grid_n,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	FlopsPerSec float64 `json:"flops_per_sec,omitempty"`
}

// ArrivalSpec describes one arrival process.
type ArrivalSpec struct {
	// Process is "closed", "poisson", "bursty", "diurnal" or "trace".
	Process string `json:"process"`
	// MeanInterarrivalS is the mean inter-arrival time at load 1
	// (poisson; diurnal's time-averaged mean).
	MeanInterarrivalS float64 `json:"mean_interarrival_s,omitempty"`

	// bursty (MMPP-2): mean inter-arrival inside bursts and between
	// them, and the exponential mean dwell time in each regime.
	BurstInterarrivalS float64 `json:"burst_interarrival_s,omitempty"`
	CalmInterarrivalS  float64 `json:"calm_interarrival_s,omitempty"`
	BurstDwellS        float64 `json:"burst_dwell_s,omitempty"`
	CalmDwellS         float64 `json:"calm_dwell_s,omitempty"`

	// diurnal: rate(t) = base·(1 + Amplitude·sin(2πt/PeriodS)), with
	// base = load/MeanInterarrivalS. Amplitude must lie in [0, 1).
	PeriodS   float64 `json:"period_s,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`

	// trace: path to a job CSV (trace.ReadJobs format), relative to the
	// scenario file.
	Path string `json:"path,omitempty"`

	// closed: optional explicit arrival instants; empty means all jobs
	// arrive at t=0.
	Times []float64 `json:"times,omitempty"`
}

// Label names the process for reports and CSV columns.
func (a ArrivalSpec) Label() string {
	if a.Process == "trace" && a.Path != "" {
		return "trace:" + filepath.Base(a.Path)
	}
	return a.Process
}

// ArrivalList unmarshals from either a single JSON object or an array of
// objects, so simple scenarios stay terse.
type ArrivalList []ArrivalSpec

// UnmarshalJSON implements json.Unmarshaler.
func (l *ArrivalList) UnmarshalJSON(data []byte) (err error) {
	*l, err = oneOrMany[ArrivalSpec](data)
	return err
}

// Load reads and validates a scenario file. Relative trace paths are
// resolved against the file's directory.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	spec, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	spec.dir = filepath.Dir(path)
	return spec, nil
}

// Parse decodes and validates a scenario from JSON bytes.
func Parse(data []byte) (*Spec, error) {
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the spec and fills defaults (Loads, Schedulers, Weight).
func (s *Spec) Validate() error {
	if s.Federation != nil {
		// Validated first: the federation block forbids the spec-level
		// axes it replaces and derives the nodes entry from the fleet.
		if err := s.Federation.validate(s); err != nil {
			return err
		}
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("no cluster sizes (nodes)")
	}
	for _, n := range s.Nodes {
		if n <= 0 {
			return fmt.Errorf("invalid cluster size %d", n)
		}
	}
	if len(s.Loads) == 0 {
		s.Loads = []float64{1}
	}
	for _, l := range s.Loads {
		if l <= 0 {
			return fmt.Errorf("invalid load %g", l)
		}
	}
	if len(s.Schedulers) == 0 && s.Federation == nil {
		for _, name := range sched.Names() {
			s.Schedulers = append(s.Schedulers, SchedulerSpec{Name: name})
		}
	}
	for i := range s.Schedulers {
		if err := s.Schedulers[i].validate(); err != nil {
			return fmt.Errorf("schedulers[%d]: %w", i, err)
		}
	}
	if len(s.Arrivals) == 0 {
		return fmt.Errorf("no arrival process")
	}
	needsMix := false
	for i := range s.Arrivals {
		if err := s.Arrivals[i].validate(s); err != nil {
			return fmt.Errorf("arrivals[%d]: %w", i, err)
		}
		if s.Arrivals[i].Process != "trace" {
			needsMix = true
		}
	}
	if needsMix && len(s.Mix) == 0 {
		return fmt.Errorf("job mix required for generated arrivals")
	}
	for i := range s.Mix {
		if err := s.Mix[i].validate(); err != nil {
			return fmt.Errorf("mix[%d]: %w", i, err)
		}
	}
	for i := range s.Availability {
		if err := s.Availability[i].Validate(); err != nil {
			return fmt.Errorf("availability[%d]: %w", i, err)
		}
	}
	for i := range s.AppModels {
		if err := s.AppModels[i].validate(); err != nil {
			return fmt.Errorf("appmodels[%d]: %w", i, err)
		}
	}
	if s.Reconfig != nil && (s.Reconfig.RedistributionSPerNode < 0 || s.Reconfig.LostWorkS < 0) {
		return fmt.Errorf("reconfig costs must be >= 0")
	}
	if s.Observe != nil {
		if err := s.Observe.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (a *ArrivalSpec) validate(s *Spec) error {
	switch a.Process {
	case "closed":
		if len(a.Times) == 0 && s.Jobs <= 0 {
			return fmt.Errorf("closed process needs jobs > 0 or explicit times")
		}
		for i := 1; i < len(a.Times); i++ {
			if a.Times[i] < a.Times[i-1] {
				return fmt.Errorf("times not sorted at index %d", i)
			}
		}
		if len(a.Times) > 0 && a.Times[0] < 0 {
			return fmt.Errorf("negative arrival time")
		}
	case "poisson":
		if a.MeanInterarrivalS <= 0 {
			return fmt.Errorf("poisson needs mean_interarrival_s > 0")
		}
		if s.Jobs <= 0 && s.HorizonS <= 0 {
			return fmt.Errorf("open process needs jobs > 0 or horizon_s > 0")
		}
	case "bursty":
		if a.BurstInterarrivalS <= 0 || a.CalmInterarrivalS <= 0 {
			return fmt.Errorf("bursty needs burst_interarrival_s and calm_interarrival_s > 0")
		}
		if a.BurstDwellS <= 0 || a.CalmDwellS <= 0 {
			return fmt.Errorf("bursty needs burst_dwell_s and calm_dwell_s > 0")
		}
		if s.Jobs <= 0 && s.HorizonS <= 0 {
			return fmt.Errorf("open process needs jobs > 0 or horizon_s > 0")
		}
	case "diurnal":
		if a.MeanInterarrivalS <= 0 {
			return fmt.Errorf("diurnal needs mean_interarrival_s > 0")
		}
		if a.PeriodS <= 0 {
			return fmt.Errorf("diurnal needs period_s > 0")
		}
		if a.Amplitude < 0 || a.Amplitude >= 1 {
			return fmt.Errorf("diurnal amplitude %g outside [0, 1)", a.Amplitude)
		}
		if s.Jobs <= 0 && s.HorizonS <= 0 {
			return fmt.Errorf("open process needs jobs > 0 or horizon_s > 0")
		}
	case "trace":
		if a.Path == "" {
			return fmt.Errorf("trace needs a path")
		}
	default:
		return fmt.Errorf("unknown process %q", a.Process)
	}
	return nil
}

func (m *MixSpec) validate() error {
	if m.Weight < 0 {
		return fmt.Errorf("negative weight")
	}
	if m.Weight == 0 {
		m.Weight = 1
	}
	if m.MaxNodes < 0 {
		return fmt.Errorf("negative max_nodes")
	}
	if m.JobWeight < 0 {
		return fmt.Errorf("negative job_weight")
	}
	if m.JobWeight == 0 {
		m.JobWeight = 1
	}
	switch m.Kind {
	case "lu":
		if (m.N == 0) != (m.R == 0) {
			return fmt.Errorf("lu needs both n and r (or neither)")
		}
		if m.N > 0 && (m.R <= 0 || m.N%m.R != 0) {
			return fmt.Errorf("lu block size r=%d must divide n=%d", m.R, m.N)
		}
	case "synthetic":
		if m.Phases <= 0 || m.WorkS <= 0 {
			return fmt.Errorf("synthetic needs phases > 0 and work_s > 0")
		}
		if m.Comm < 0 || m.CV < 0 {
			return fmt.Errorf("synthetic comm and cv must be >= 0")
		}
		// The component's curve is the registered "synthetic" model;
		// construct it so registry range checks apply (the generator
		// lowers the curve onto Phase.Comm, the inlined fast path).
		if _, err := appmodel.New("synthetic", appmodel.Params{"comm": m.Comm}); err != nil {
			return err
		}
	case "stencil":
		if m.GridN <= 0 || m.Iterations <= 0 {
			return fmt.Errorf("stencil needs grid_n > 0 and iterations > 0")
		}
		if m.FlopsPerSec < 0 {
			return fmt.Errorf("stencil flops_per_sec must be >= 0")
		}
		if _, err := appmodel.New("stencil",
			appmodel.Params{"grid_n": float64(m.GridN), "flops": m.FlopsPerSec}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown mix kind %q", m.Kind)
	}
	return nil
}
